// Package conc provides the bounded parallel-for the server's batch and
// job dispatchers need, with stdlib-only code. The module deliberately
// avoids external dependencies, so this is the local stand-in for
// golang.org/x/sync/errgroup with a limit.
//
// Parallel never cancels work on error: every index runs to completion.
// That is a deliberate contract, not a limitation. The solvers and the
// batch dispatcher thread context cancellation through the work itself
// (dataflow.Problem.Ctx, per-item request contexts), and the lcmd
// accounting invariant — every admitted item lands in exactly one outcome
// bucket — requires that a failure in one item never stops its siblings
// from being dispatched and accounted.
package conc

import "sync"

// Parallel calls fn(i) for every i in [0, n) using at most limit
// concurrent goroutines (limit <= 0 means one goroutine per index). Every
// index is visited exactly once even when earlier calls fail; the first
// error (in completion order) is returned after all calls complete.
// Indices are claimed in order, so with limit 1 the calls are exactly
// fn(0), fn(1), …, fn(n-1).
func Parallel(n, limit int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	for lane := 0; lane < limit; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i < n; i = claim() {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
