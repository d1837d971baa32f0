package conc

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestParallelVisitsEveryIndexOnce is the contract the lcmd batch
// dispatcher depends on: even with failures and limits, each index runs
// exactly once, so admission accounting stays item-exact.
func TestParallelVisitsEveryIndexOnce(t *testing.T) {
	for _, limit := range []int{0, 1, 2, 3, 16, 100} {
		const n = 64
		visits := make([]atomic.Int64, n)
		boom := errors.New("boom")
		err := Parallel(n, limit, func(i int) error {
			visits[i].Add(1)
			if i%5 == 0 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("limit=%d: err = %v, want %v", limit, err, boom)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("limit=%d: index %d visited %d times", limit, i, got)
			}
		}
	}
}

func TestParallelSequentialOrder(t *testing.T) {
	var order []int
	if err := Parallel(5, 1, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("limit=1 order = %v, want ascending", order)
		}
	}
}

func TestParallelEmpty(t *testing.T) {
	called := false
	if err := Parallel(0, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for n=0")
	}
}
