package hdbench

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median odd = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Nearest rank never interpolates: the p99 of 10 samples is the largest.
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99); got != 10 {
		t.Errorf("percentile(1..10, 99) = %v, want 10", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestCV(t *testing.T) {
	if got := cv([]float64{2, 2, 2}); got != 0 {
		t.Errorf("cv of constants = %v, want 0", got)
	}
	if got := cv([]float64{1, 3}); !near(got, 0.5) {
		t.Errorf("cv(1,3) = %v, want 0.5", got)
	}
}

// Times shrink and rates grow by the run's speed factor; counts, sizes
// and ratios pass through.
func TestAtReference(t *testing.T) {
	for _, tc := range []struct {
		unit string
		want float64
	}{{"s", 8}, {"ms", 8}, {"us", 8}, {"ns", 8}, {"1/s", 12.5}, {"count", 10}, {"KB", 10}, {"MB", 10}, {"ratio", 10}} {
		if got := (Metric{Unit: tc.unit}).atReference(10, 1.25); !near(got, tc.want) {
			t.Errorf("10 %s on a machine 1.25x slower = %v at reference speed, want %v", tc.unit, got, tc.want)
		}
	}
	// Every unit the metric lists use is one the conversion knows.
	known := map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "1/s": true,
		"count": true, "KB": true, "MB": true, "ratio": true}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if !known[m.Unit] {
			t.Errorf("metric %s has unit %q, which atReference does not classify", m.Name, m.Unit)
		}
	}
}
