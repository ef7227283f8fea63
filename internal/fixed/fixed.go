// Package fixed implements fixed-point decimal encoding. Decimal columns —
// prices (decimal(_,2)), discounts, and the GPS coordinates of Table I
// (lon decimal(8,5), lat decimal(7,5)) — are stored as scaled integers, the
// standard column-store representation that makes them amenable to bitwise
// decomposition.
package fixed

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Common scales.
const (
	Scale2 = 100    // decimal(_,2): money
	Scale5 = 100000 // decimal(_,5): GPS coordinates
)

// FromFloat encodes f at the given scale, rounding to nearest.
func FromFloat(f float64, scale int64) int64 {
	return int64(math.Round(f * float64(scale)))
}

// ToFloat decodes a scaled integer.
func ToFloat(v, scale int64) float64 {
	return float64(v) / float64(scale)
}

// Parse parses a decimal literal ("-12.62427") at the given scale.
// Excess fractional digits are an error; missing ones are zero-padded.
func Parse(s string, scale int64) (int64, error) {
	digits := 0
	for sc := scale; sc > 1; sc /= 10 {
		digits++
	}
	neg := strings.HasPrefix(s, "-")
	body := strings.TrimPrefix(s, "-")
	intPart, fracPart := body, ""
	if dot := strings.IndexByte(body, '.'); dot >= 0 {
		intPart, fracPart = body[:dot], body[dot+1:]
	}
	if len(fracPart) > digits {
		return 0, fmt.Errorf("fixed: %q has more than %d fractional digits", s, digits)
	}
	fracPart += strings.Repeat("0", digits-len(fracPart))
	if intPart == "" {
		intPart = "0"
	}
	ip, err := strconv.ParseInt(intPart, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("fixed: bad integer part in %q: %v", s, err)
	}
	var fp int64
	if fracPart != "" {
		fp, err = strconv.ParseInt(fracPart, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("fixed: bad fraction in %q: %v", s, err)
		}
	}
	v := ip*scale + fp
	if neg {
		v = -v
	}
	return v, nil
}

// Format renders a scaled integer as a decimal literal.
func Format(v, scale int64) string {
	digits := 0
	for sc := scale; sc > 1; sc /= 10 {
		digits++
	}
	sign := ""
	if v < 0 {
		sign = "-"
		v = -v
	}
	if digits == 0 {
		return sign + strconv.FormatInt(v, 10)
	}
	return fmt.Sprintf("%s%d.%0*d", sign, v/scale, digits, v%scale)
}
