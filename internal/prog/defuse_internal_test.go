package prog

import (
	"slices"
	"testing"
)

// TestUnionDefs: the reaching-definition meet is the sorted set union,
// and it reuses an operand that already is the union.
func TestUnionDefs(t *testing.T) {
	for _, c := range []struct{ a, b, want []int }{
		{nil, nil, nil},
		{[]int{-1}, nil, []int{-1}},
		{nil, []int{4}, []int{4}},
		{[]int{-1, 3}, []int{-1, 3}, []int{-1, 3}},
		{[]int{-1}, []int{3}, []int{-1, 3}},
		{[]int{3}, []int{-1}, []int{-1, 3}},
		{[]int{-1, 3, 9}, []int{3, 5}, []int{-1, 3, 5, 9}},
		{[]int{2, 7}, []int{-1, 2, 7, 8}, []int{-1, 2, 7, 8}},
	} {
		got := unionDefs(c.a, c.b)
		if !slices.Equal(got, c.want) {
			t.Errorf("unionDefs(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if slices.Equal(c.a, c.want) && len(c.a) > 0 && &got[0] != &c.a[0] {
			t.Errorf("unionDefs(%v, %v) copied an operand that already is the union", c.a, c.b)
		}
	}
	var a, b defState
	a[3], b[3] = []int{1}, []int{2}
	if statesEqual(&a, &b) {
		t.Error("statesEqual ignores a differing register")
	}
	b[3] = []int{1}
	if !statesEqual(&a, &b) {
		t.Error("statesEqual rejects equal states")
	}
}
