package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_t*.golden from the current tree")

// TestQuickFiguresGolden is the refactor oracle: every simulated figure is a
// pure function of the seeded data and the meter charges, so a change that
// claims "same behaviour" must render them byte-identically. partition (its
// N=1 row follows the one-leg pre-grouping rule) is not part of the oracle.
func TestQuickFiguresGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64; other targets may fuse the float multiply-adds in kernelTime")
	}
	figs := []func(Options) (*Figure, error){
		Fig8a, Fig8b, Fig8c, Fig8d, Fig8e, Fig8f, Fig9, Fig10a, Fig10b, Fig10c, Fig11, Ingest,
	}
	for _, threads := range []int{1, 4} {
		opts := Quick()
		opts.Threads = threads
		var got bytes.Buffer
		for _, f := range figs {
			fig, err := f(opts)
			if err != nil {
				t.Fatal(err)
			}
			got.WriteString(fig.Render())
			got.WriteByte('\n')
		}
		tb, err := Table1(opts)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(tb.Render())

		path := filepath.Join("testdata", fmt.Sprintf("quick_t%d.golden", threads))
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("threads=%d: quick figures differ from %s (rerun with -update only for a deliberate meter change)\ngot:\n%s", threads, path, got.Bytes())
		}
	}
}
