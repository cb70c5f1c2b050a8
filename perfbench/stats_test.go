package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9.5 samples above the median
		{20, 50, true},
		{99, 50, true}, // 9.9 samples beyond p90
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
		{10000000, 99.99, true}, // the ladder tops out
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
}
