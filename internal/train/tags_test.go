package train

import (
	"testing"

	"plshuffle/internal/shuffle"
)

// TestTagSpacesDisjoint proves the layout in tags.go: over the legal ranges
// (epoch < maxEpochs, rank < 1<<22, generation ≥ 0) every user tag falls in
// its own space's interval, and the intervals are pairwise disjoint. Each tag
// function is monotone in each argument, so the range edges bound the rest.
func TestTagSpacesDisjoint(t *testing.T) {
	const maxRank = 1<<22 - 1
	edges := func(max int) []int { return []int{0, 1, max / 2, max - 1, max} }
	type space struct {
		name   string
		lo, hi int // inclusive interval claimed in tags.go
		tags   []int
	}
	spaces := []space{
		{name: "exchange", lo: 0, hi: 1<<20 - 1},
		{name: "admit", lo: 1 << 22, hi: 1<<23 - 1},
	}
	for _, e := range edges(maxEpochs - 1) {
		spaces[0].tags = append(spaces[0].tags, shuffle.ExchangeTag(e))
	}
	for _, r := range edges(maxRank) {
		spaces[1].tags = append(spaces[1].tags, admitTag(r))
	}
	// Rebalance tags: one interval per generation.
	for _, g := range []int{0, 1, 2, 1 << 10, 1 << 30} {
		rb := space{name: "rebalance", lo: (g+1)<<24 + 1<<23, hi: (g+1)<<24 + 1<<23 + 1<<20 - 1}
		for _, e := range edges(maxEpochs - 1) {
			rb.tags = append(rb.tags, shuffle.RebalanceTag(g, e))
		}
		spaces = append(spaces, rb)
	}
	for i, a := range spaces {
		for _, tag := range a.tags {
			if tag < a.lo || tag > a.hi {
				t.Errorf("%s tag %d outside its interval [%d, %d]", a.name, tag, a.lo, a.hi)
			}
		}
		for _, b := range spaces[i+1:] {
			if a.lo <= b.hi && b.lo <= a.hi {
				t.Errorf("%s [%d, %d] overlaps %s [%d, %d]", a.name, a.lo, a.hi, b.name, b.lo, b.hi)
			}
		}
	}
}
