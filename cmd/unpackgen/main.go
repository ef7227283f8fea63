// Command unpackgen writes internal/bitpack's decode kernels: for each width
// 1..63 one straight-line function that decodes a block of 64 packed values —
// exactly width words — with every shift a constant, and the switch that
// dispatches to them by width. It writes unpack_gen.go in the working
// directory; go generate runs it in internal/bitpack:
//
//	go generate ./internal/bitpack
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
)

func main() {
	src, err := generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("unpack_gen.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// generate returns the gofmt'ed source of the kernels' file.
func generate() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`// Code generated by unpackgen; DO NOT EDIT.

package bitpack

// unpackBlock decodes the 64 values of width 1..63 that fill ws[:width],
// each plus base (wrapping), into o. It is a switch, not a table of
// functions: a call through a function value hides the kernel from escape
// analysis, and every caller's o would move to the heap.
func unpackBlock(o *[64]uint64, ws []uint64, width uint, base uint64) {
	switch width {
`)
	for w := 1; w < 64; w++ {
		fmt.Fprintf(&b, "case %d:\nunpack%d(o, ws, base)\n", w, w)
	}
	b.WriteString("}\n}\n")
	for w := 1; w < 64; w++ {
		kernel(&b, w)
	}
	return format.Source(b.Bytes())
}

// kernel writes unpackW: value i of the block lies at bit s = i·w mod 64 of
// word k = i·w / 64, and where s + w passes 64 its high bits open word k+1.
func kernel(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, "\nfunc unpack%d(o *[64]uint64, ws []uint64, base uint64) {\nx := (*[%d]uint64)(ws)\n", w, w)
	for i := range 64 {
		k, s := i*w/64, i*w%64
		v := fmt.Sprintf("x[%d]", k)
		if s > 0 {
			v += fmt.Sprintf(">>%d", s)
		}
		if s+w > 64 {
			v = fmt.Sprintf("(%s | x[%d]<<%d)", v, k+1, 64-s)
		}
		if s+w != 64 { // a value that ends its word has nothing above it to clear
			v += fmt.Sprintf("&%#x", uint64(1)<<w-1)
		}
		fmt.Fprintf(b, "o[%d] = %s + base\n", i, v)
	}
	b.WriteString("}\n")
}
