package power

import (
	"math"
	"testing"
)

// sigValues spans every significance 1..8 from both signs, plus the
// boundary values of each byte count.
func sigValues() []int64 {
	vals := []int64{0, -1, 1, math.MinInt64, math.MaxInt64}
	for k := 1; k < 8; k++ {
		hi := int64(1)<<(8*k-1) - 1 // largest k-byte value
		lo := -hi - 1               // smallest k-byte value
		vals = append(vals, hi, hi+1, lo, lo-1, -hi)
	}
	return vals
}

// TestAccessSigMatchesAccessValue: feeding a meter the shared-significance
// call stream (AccessSig/AccessCacheSig) leaves Energy bit-identical and
// Accesses equal to the same stream through the per-value reference
// accessors, for every gating mode, software width and significance, with
// the cache's sign-extend approach on and off.
func TestAccessSigMatchesAccessValue(t *testing.T) {
	vals := sigValues()
	seen := map[int]bool{}
	for _, v := range vals {
		seen[SignificantBytes(v)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("value set covers %d significances, want 8", len(seen))
	}
	params := DefaultParams()
	for _, mode := range Modes() {
		for _, sext := range []bool{false, true} {
			ref, tab := NewMeter(params, mode), NewMeter(params, mode)
			ref.SignExtendToCache, tab.SignExtendToCache = sext, sext
			for _, sw := range []int{0, 1, 2, 4, 8} {
				for _, v := range vals {
					sig := SignificantBytes(v)
					for s := Structure(0); s < NumStructures; s++ {
						ref.AccessValue(s, sw, v)
						tab.AccessSig(s, sw, sig)
						ref.AccessCacheValue(s, sw, v)
						tab.AccessCacheSig(s, sw, sig)
						// Checked per access, so a differing term
						// cannot hide in the running sum.
						if math.Float64bits(ref.Energy[s]) != math.Float64bits(tab.Energy[s]) {
							t.Fatalf("%v sext=%v %v sw=%d v=%d: energy %v (table) != %v (reference)",
								mode, sext, s, sw, v, tab.Energy[s], ref.Energy[s])
						}
					}
				}
			}
			if ref.Accesses != tab.Accesses {
				t.Errorf("%v sext=%v: access counts differ", mode, sext)
			}
		}
	}
}
