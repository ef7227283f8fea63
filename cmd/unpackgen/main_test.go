package main

import (
	"bytes"
	"os"
	"testing"
)

// The committed kernels are what the generator writes, byte for byte: an
// edit to either that the other does not follow fails here.
func TestGeneratedFileIsCurrent(t *testing.T) {
	want, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../internal/bitpack/unpack_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/bitpack/unpack_gen.go differs from what unpackgen writes: run go generate ./internal/bitpack")
	}
}
