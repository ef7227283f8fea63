package bat

import "testing"

func TestNewDense(t *testing.T) {
	b := NewDense([]int64{5, 6, 7}, Width32)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	for i := 0; i < 3; i++ {
		if b.Tail(i) != int64(5+i) {
			t.Errorf("Tail(%d) = %d, want %d", i, b.Tail(i), 5+i)
		}
	}
}

func TestUnsupportedWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width 3 did not panic")
		}
	}()
	NewDense(nil, 3)
}

func TestBytes(t *testing.T) {
	b := NewDense(make([]int64, 10), Width32)
	if b.TailBytes() != 40 {
		t.Errorf("TailBytes = %d, want 40", b.TailBytes())
	}
}

func TestMinMax(t *testing.T) {
	b := NewDense([]int64{5, -3, 12, 0}, Width32)
	lo, hi := b.MinMax()
	if lo != -3 || hi != 12 {
		t.Errorf("MinMax = (%d,%d), want (-3,12)", lo, hi)
	}
}

func TestMinMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MinMax on empty BAT did not panic")
		}
	}()
	NewDense(nil, Width32).MinMax()
}

func TestString(t *testing.T) {
	s := NewDense([]int64{1}, Width32).String()
	if s == "" {
		t.Error("empty String()")
	}
}
