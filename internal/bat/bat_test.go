package bat

import "testing"

func TestNewDense(t *testing.T) {
	b := NewDense([]int64{5, 6, 7}, Width32)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	for i, v := range b.Tails() {
		if v != int64(5+i) {
			t.Errorf("Tails()[%d] = %d, want %d", i, v, 5+i)
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

func TestString(t *testing.T) {
	s := NewDense([]int64{1}, Width32).String()
	if s == "" {
		t.Error("empty String()")
	}
}
