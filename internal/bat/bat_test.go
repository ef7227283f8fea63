package bat

import "testing"

func TestValidWidth(t *testing.T) {
	for _, w := range []int{Width8, Width16, Width32, Width64} {
		if !ValidWidth(w) {
			t.Errorf("ValidWidth(%d) = false", w)
		}
	}
	for _, w := range []int{0, 3, 16, -4} {
		if ValidWidth(w) {
			t.Errorf("ValidWidth(%d) = true", w)
		}
	}
}
