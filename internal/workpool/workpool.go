// Package workpool is the engine's one fork-join: the embarrassingly
// parallel disk loops — media recovery and rebuild batches, the restart's
// group walk and parity resync, bulk-load stripe writes — run across a
// bounded set of workers, and so do the independent transfers of one
// array operation on queued drives (diskarray.Array.Together, one worker
// per transfer).
//
// The contract is shaped by the fault-injection plane:
//
//   - workers <= 1 runs the loop inline in index order, byte-identical to
//     the plain for-loop it replaces, so single-threaded crashcheck
//     schedules stay deterministic.
//   - indices are handed out in ascending order, and on an error or a
//     panic the pool stops handing out new ones: every index below a
//     failed one has run, an index above it may not have.
//   - a worker panic (a crash point firing inside disk I/O) is re-thrown
//     in the caller's goroutine after the other workers drain, so
//     fault.AsCrash sentinels keep propagating to the CrashHard harness
//     exactly as in the sequential loop.  Of several panics, the one of
//     the lowest index is re-thrown, not the first observed, so a crash
//     inside one branch fails the same way whatever the interleaving.
//   - among the errors observed, the one with the lowest index is
//     returned, matching the first-error semantics of the sequential loop
//     as closely as an unordered execution can.
package workpool

import "sync"

// Run executes fn(i) for every i in [0, n) using at most `workers`
// concurrent goroutines.  See the package comment for the sequential,
// panic and error contracts.
func Run(workers, n int, fn func(i int) error) error {
	return RunLanes(workers, n, func(_, i int) error { return fn(i) })
}

// RunLanes is Run for loops whose workers keep state of their own (scratch
// pages): fn also receives the number of the worker running it, in
// [0, workers), and calls with one lane number never overlap.  The inline
// loop is lane 0.
func RunLanes(workers, n int, fn func(lane, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		next     int
		firstErr error
		errIdx   int
		panicVal any
		panicIdx int
		panicked bool
		wg       sync.WaitGroup
	)
	worker := func(lane int) {
		defer wg.Done()
		for {
			mu.Lock()
			if panicked || firstErr != nil || next >= n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			func() {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if !panicked || i < panicIdx {
							panicked, panicVal, panicIdx = true, r, i
						}
						mu.Unlock()
					}
				}()
				if err := fn(lane, i); err != nil {
					mu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
				}
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker(w)
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	return firstErr
}
