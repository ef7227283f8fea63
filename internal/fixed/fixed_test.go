package fixed

import (
	"testing"
	"testing/quick"
)

func TestFromToFloat(t *testing.T) {
	if got := FromFloat(2.68288, Scale5); got != 268288 {
		t.Errorf("FromFloat(2.68288) = %d, want 268288", got)
	}
	if got := FromFloat(-12.62427, Scale5); got != -1262427 {
		t.Errorf("FromFloat(-12.62427) = %d, want -1262427", got)
	}
	if got := ToFloat(268288, Scale5); got != 2.68288 {
		t.Errorf("ToFloat = %v, want 2.68288", got)
	}
	if got := FromFloat(0.05, Scale2); got != 5 {
		t.Errorf("FromFloat(0.05, Scale2) = %d, want 5", got)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in    string
		scale int64
		want  int64
	}{
		{"2.68288", Scale5, 268288},
		{"-12.62427", Scale5, -1262427},
		{"50.4222", Scale5, 5042220},
		{"70.13643", Scale5, 7013643},
		{"0.05", Scale2, 5},
		{"1", Scale2, 100},
		{"-0.07", Scale2, -7},
		{".5", Scale2, 50},
	}
	for _, c := range cases {
		got, err := Parse(c.in, c.scale)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"1.123456", "abc", "1.2.3", "1.xy"} {
		if _, err := Parse(bad, Scale5); err == nil {
			t.Errorf("Parse(%q) did not error", bad)
		}
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		v     int64
		scale int64
		want  string
	}{
		{268288, Scale5, "2.68288"},
		{-1262427, Scale5, "-12.62427"},
		{5, Scale2, "0.05"},
		{100, Scale2, "1.00"},
		{0, Scale5, "0.00000"},
	}
	for _, c := range cases {
		if got := Format(c.v, c.scale); got != c.want {
			t.Errorf("Format(%d, %d) = %q, want %q", c.v, c.scale, got, c.want)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	f := func(raw int32) bool {
		v := int64(raw)
		s := Format(v, Scale5)
		back, err := Parse(s, Scale5)
		return err == nil && back == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
