// Package interval implements the two's-complement value-range domain used
// by value range propagation (Section 2 of the paper).
//
// An Interval is a contiguous signed range [Lo, Hi] over int64. Arithmetic
// transfer functions are conservative with respect to 64-bit wraparound:
// when an operation could overflow the signed 64-bit ring, the result is
// widened to Top, never to a wrapped (possibly disjoint) range — this is
// exactly the paper's §2.2.1 rule ("if overflow is possible then the
// calculated range takes the wrap around behavior into account ... overly
// conservative, [but] it ensures correctness").
//
// Widths are assigned in sign-extension form (§2.4: "narrow values are
// always kept in 2's complement to keep information about the sign"): a
// value occupies k bytes iff sign-extending its low k bytes reproduces it.
package interval

import (
	"fmt"
	"math"
)

// Interval is an inclusive signed range. The zero value is the empty
// interval; use Top(), Const(), or New() to build non-empty ranges.
type Interval struct {
	Lo, Hi int64
	ok     bool // non-empty
}

// Top returns the full 64-bit signed range.
func Top() Interval { return Interval{math.MinInt64, math.MaxInt64, true} }

// Empty returns the empty (bottom) interval.
func Empty() Interval { return Interval{} }

// Const returns the singleton interval {v}.
func Const(v int64) Interval { return Interval{v, v, true} }

// New returns [lo, hi]; it panics if lo > hi (a programming error in the
// analysis, not a data condition).
func New(lo, hi int64) Interval {
	if lo > hi {
		panic(fmt.Sprintf("interval: New(%d, %d) with lo > hi", lo, hi))
	}
	return Interval{lo, hi, true}
}

// IsEmpty reports whether the interval contains no values.
func (iv Interval) IsEmpty() bool { return !iv.ok }

// IsTop reports whether the interval is the full 64-bit range.
func (iv Interval) IsTop() bool {
	return iv.ok && iv.Lo == math.MinInt64 && iv.Hi == math.MaxInt64
}

// IsConst reports whether the interval is a singleton, and its value.
func (iv Interval) IsConst() (int64, bool) {
	if iv.ok && iv.Lo == iv.Hi {
		return iv.Lo, true
	}
	return 0, false
}

// Contains reports whether v lies within the interval.
func (iv Interval) Contains(v int64) bool { return iv.ok && iv.Lo <= v && v <= iv.Hi }

// ContainsInterval reports whether other is a subset of iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.IsEmpty() {
		return true
	}
	return iv.ok && iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// Size returns the number of values in the interval as a float64 (the count
// can exceed int64 range for wide intervals).
func (iv Interval) Size() float64 {
	if !iv.ok {
		return 0
	}
	return float64(iv.Hi) - float64(iv.Lo) + 1
}

// String renders the interval like the paper's <min,max> notation.
func (iv Interval) String() string {
	if !iv.ok {
		return "<empty>"
	}
	if iv.IsTop() {
		return "<INTmin,INTmax>"
	}
	return fmt.Sprintf("<%d,%d>", iv.Lo, iv.Hi)
}

// Join returns the least interval containing both operands (the meet
// operator of the paper's "conservative safe approach": when a value can be
// produced by several instructions, the union of their ranges is used).
func (iv Interval) Join(other Interval) Interval {
	if !iv.ok {
		return other
	}
	if !other.ok {
		return iv
	}
	return Interval{min(iv.Lo, other.Lo), max(iv.Hi, other.Hi), true}
}

// Meet returns the intersection of the operands (used when refining a range
// with branch-condition information).
func (iv Interval) Meet(other Interval) Interval {
	if !iv.ok || !other.ok {
		return Empty()
	}
	lo, hi := max(iv.Lo, other.Lo), min(iv.Hi, other.Hi)
	if lo > hi {
		return Empty()
	}
	return Interval{lo, hi, true}
}

// Widen accelerates fixpoint convergence: any bound that moved since prev
// jumps to its extreme. Standard interval widening.
func Widen(prev, next Interval) Interval {
	if prev.IsEmpty() {
		return next
	}
	if next.IsEmpty() {
		return prev
	}
	lo, hi := prev.Lo, prev.Hi
	if next.Lo < prev.Lo {
		lo = math.MinInt64
	}
	if next.Hi > prev.Hi {
		hi = math.MaxInt64
	}
	return Interval{lo, hi, true}
}

// Equal reports exact equality of intervals.
func (iv Interval) Equal(other Interval) bool {
	if iv.ok != other.ok {
		return false
	}
	return !iv.ok || (iv.Lo == other.Lo && iv.Hi == other.Hi)
}

// SignificantBytes returns the number of bytes k (1..8) such that
// sign-extending the low k bytes of v reproduces v.
func SignificantBytes(v int64) int {
	for k := 1; k < 8; k++ {
		shift := uint(64 - 8*k)
		if v<<shift>>shift == v {
			return k
		}
	}
	return 8
}

// Bytes returns the number of bytes needed to represent every value of the
// interval in sign-extended two's complement. Empty intervals need 1 byte.
func (iv Interval) Bytes() int {
	if !iv.ok {
		return 1
	}
	lo, hi := SignificantBytes(iv.Lo), SignificantBytes(iv.Hi)
	if lo > hi {
		return lo
	}
	return hi
}

// FitsBytes reports whether every value of the interval is representable by
// sign-extending k bytes.
func (iv Interval) FitsBytes(k int) bool { return iv.Bytes() <= k }

// WidthBounds returns the interval of all values representable in k
// sign-extended bytes: [-2^(8k-1), 2^(8k-1)-1].
func WidthBounds(k int) Interval {
	if k >= 8 {
		return Top()
	}
	half := int64(1) << uint(8*k-1)
	return Interval{-half, half - 1, true}
}

// UnsignedWidthBounds returns [0, 2^(8k)-1], the range of a k-byte
// zero-extended load.
func UnsignedWidthBounds(k int) Interval {
	if k >= 8 {
		return Top()
	}
	return Interval{0, int64(1)<<uint(8*k) - 1, true}
}
