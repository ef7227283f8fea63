package tpch

import "sort"

// Part-type dictionary. TPC-H composes p_type from three syllable lists;
// the dictionary is sorted so that string-prefix predicates become code
// ranges — the rewrite the paper applies to Q14's `p_type like 'PROMO%'`
// predicate, replacing the string operation with "a range-selection on an
// ordered dictionary of the string values of the column" (§VI-D1).
var (
	types1 = []string{"ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"}
	types2 = []string{"ANODIZED", "BRUSHED", "BURNISHED", "PLATED", "POLISHED"}
	types3 = []string{"BRASS", "COPPER", "NICKEL", "STEEL", "TIN"}

	// Types is the ordered p_type dictionary. (The paper reports 125
	// distinct values in its data set; the TPC-H spec lists make 150 —
	// the prefix-to-range rewrite is unaffected.)
	Types = buildTypes()
)

func buildTypes() []string {
	var out []string
	for _, a := range types1 {
		for _, b := range types2 {
			for _, c := range types3 {
				out = append(out, a+" "+b+" "+c)
			}
		}
	}
	sort.Strings(out)
	return out
}

// PrefixRange returns the dictionary code range [lo, hi] of all entries
// with the given prefix; ok is false when no entry matches. This is the
// ordered-dictionary rewrite of `like 'prefix%'`.
func PrefixRange(prefix string) (lo, hi int64, ok bool) {
	start := sort.SearchStrings(Types, prefix)
	end := start
	for end < len(Types) && len(Types[end]) >= len(prefix) && Types[end][:len(prefix)] == prefix {
		end++
	}
	if end == start {
		return 0, 0, false
	}
	return int64(start), int64(end - 1), true
}
