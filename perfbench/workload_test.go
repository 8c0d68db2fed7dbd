package main

import "testing"

func TestMixPatternSpreadsWeights(t *testing.T) {
	p := mixPattern([numClasses]int{80, 18, 2})
	if len(p) != 100 {
		t.Fatalf("pattern length %d, want 100", len(p))
	}
	var n [numClasses]int
	for i, sl := range p {
		if sl.seq != uint64(n[sl.class]) {
			t.Fatalf("slot %d: seq %d, want %d", i, sl.seq, n[sl.class])
		}
		n[sl.class]++
		// No two non-read ops in a row: writes and checkpoints interleave
		// with reads instead of arriving in bursts.
		if i > 0 && sl.class != classRead && p[i-1].class != classRead {
			t.Fatalf("slots %d and %d are both non-reads", i-1, i)
		}
	}
	if n != [numClasses]int{80, 18, 2} {
		t.Fatalf("class counts %v, want [80 18 2]", n)
	}
}

func TestStreamIsAPureFunctionOfSeedAndIndex(t *testing.T) {
	for name, s := range specs() {
		a, err := newStream(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newStream(s, 7)
		for i := uint64(baseOpen); i < baseOpen+300; i++ {
			if x, y := string(mustJSON(a.at(i).params)), string(mustJSON(b.at(i).params)); x != y {
				t.Fatalf("%s op %d: %s vs %s", name, i, x, y)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty %v, want 0", got)
	}
}
