package plan

import (
	"context"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/device"
)

// TestConcurrentRedecomposeDoesNotLeak races re-Decompose calls of the same
// column against each other and against queries: losers must release their
// device allocations (occupancy returns to a single decomposition's
// footprint) and readers must never observe a missing decomposition.
func TestConcurrentRedecomposeDoesNotLeak(t *testing.T) {
	sys := device.PaperSystem()
	c := NewCatalog(sys)
	tbl := NewTable("t")
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i % 4096)
	}
	if err := tbl.AddColumn("v", vals, bat.Width32); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompose("t", "v", 8); err != nil {
		t.Fatal(err)
	}

	q := Query{
		Table:   "t",
		Filters: []Filter{{Col: "v", Lo: 0, Hi: 100}},
		Aggs:    []AggSpec{{Name: "n", Func: Count}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(bits uint) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := c.Decompose("t", "v", bits); err != nil {
					errs <- err
					return
				}
			}
		}(uint(8 + i%3))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				res, err := c.ExecAR(context.Background(), q, ExecOpts{})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0].Vals[0] != 303 {
					errs <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the dust settles exactly one decomposition remains allocated.
	d, err := c.Decomposition("t", "v")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sys.GPU.Used(), d.GPUBytes(); got != want {
		t.Fatalf("GPU occupancy %d bytes, want the surviving decomposition's %d (leaked losers?)", got, want)
	}
	if got, want := sys.CPU.Used(), d.CPUBytes(); got != want {
		t.Fatalf("CPU occupancy %d bytes, want %d", got, want)
	}
}

var errMismatch = errorString("concurrent query returned wrong count")

type errorString string

func (e errorString) Error() string { return string(e) }
