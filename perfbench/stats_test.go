package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPercentileUsesP99WhenSupported(t *testing.T) {
	got := tailPercentile(seq(1000))
	if got.P != 99 || got.Value != 990 || got.Beyond != 10 || got.N != 1000 {
		t.Fatalf("1000 samples: got %+v, want p99 = 990 with 10 beyond", got)
	}
	got = tailPercentile(seq(5000))
	if got.P != 99 || got.Value != 4950 || got.Beyond != 50 {
		t.Fatalf("5000 samples: got %+v, want p99 = 4950 with 50 beyond", got)
	}
}

func TestTailPercentileFallsBackToHighestSupported(t *testing.T) {
	// 200 samples support p95 (10 beyond) but not p99 (2 beyond).
	got := tailPercentile(seq(200))
	if got.P != 95 || got.Value != 190 || got.Beyond != 10 {
		t.Fatalf("200 samples: got %+v, want p95 = 190 with 10 beyond", got)
	}
	for _, n := range []int{20, 37, 150, 999, 1001, 2500} {
		got := tailPercentile(seq(n))
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%.2f", n, got.Beyond, got.P)
		}
		if got.P > 99 {
			t.Errorf("n=%d: percentile %.2f above p99", n, got.P)
		}
		// One rank higher would leave fewer than minBeyond beyond it.
		if k := rankIndex(got.P/100, n); got.P < 99 && n-(k+1)-1 >= minBeyond {
			t.Errorf("n=%d: p%.2f is not the highest percentile with %d beyond", n, got.P, minBeyond)
		}
	}
}

func TestTailPercentileSmallSamplesUseMedian(t *testing.T) {
	got := tailPercentile(seq(8))
	if got.P != 50 || got.Value != 4 {
		t.Fatalf("8 samples: got %+v, want the median", got)
	}
	if (tailPercentile(nil) != tail{}) {
		t.Fatal("empty sample must read zero")
	}
}

func TestTailPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1) // failed requests miss every limit
	}
	if got := tailPercentile(xs); !math.IsInf(got.Value, 1) {
		t.Fatalf("11 failures in 1000 must put p99 at +Inf, got %v", got.Value)
	}
	if finite(math.Inf(1)) != 1e9 || finite(3) != 3 {
		t.Fatal("finite must map only +Inf to the sentinel")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if q := quantile(seq(100), 0.99); q != 99 {
		t.Fatalf("q99 of 1..100 = %v", q)
	}
}

func TestSplitFuncs(t *testing.T) {
	src := "func a(x) {\ne:\n  ret x\n}\n\nfunc b() {\ne:\n  ret 0\n}\n"
	got := splitFuncs(src)
	want := []string{"func a(x) {\ne:\n  ret x\n}\n", "func b() {\ne:\n  ret 0\n}\n"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("splitFuncs = %q", got)
	}
	if splitFuncs("") != nil || len(splitFuncs("  \n")) != 0 {
		t.Fatal("empty module must split into nothing")
	}
	if a := anonymize(want[0]); a != "func _(x) {\ne:\n  ret x\n}\n" {
		t.Fatalf("anonymize = %q", a)
	}
}
