package main

import (
	"time"

	"repro"
	"repro/internal/dist"
)

// sortLargeN is the sort-large input length: 2^22−1 int32 values, a 16 MiB
// working set.
const sortLargeN = 1<<22 - 1

// sortLarge is the paper's experiment scaled to a small machine: one client
// issuing back-to-back mixed-mode quicksorts of a large array. Request i
// sorts a fresh seeded input, Random for even i and Staggered for odd i,
// generated into the client buffer outside the timed call; a run thus
// averages the input dependence of the sort over every request instead of
// over two fixed arrays.
type sortLarge struct {
	rt   *repro.Runtime[int32]
	buf  []int32
	seed uint64
	next uint64
	// corrupt, when set, damages each output before it is verified; the
	// benchmark's own tests use it to show that checks catch bad outputs.
	corrupt func([]int32)
}

var sortLargeKinds = [2]dist.Kind{dist.Random, dist.Staggered}

func newSortLarge(cfg config) (workload, error) {
	return newSortLargeN(cfg, sortLargeN), nil
}

func newSortLargeN(cfg config, n int) *sortLarge {
	w := &sortLarge{rt: repro.NewRuntime[int32](repro.Options{P: cfg.p}), buf: make([]int32, n), seed: cfg.seed}
	for range sortLargeKinds {
		w.request(0, newSpanLog(time.Now())) // warm-up, one per distribution
	}
	return w
}

func (w *sortLarge) clients() int { return 1 }

func (w *sortLarge) request(_ int, l *spanLog) (int, time.Duration, error) {
	k := sortLargeKinds[w.next%2]
	s := l.begin("bench.prepare")
	dist.Fill(k, w.buf, 0, len(w.buf), mix64(w.seed)+w.next, dist.DefaultP)
	want := multisetHash(w.buf)
	w.next++
	l.end(s)
	t0 := time.Now()
	s = l.begin("runtime.SortMixedMode")
	w.rt.SortMixedMode(w.buf, repro.MMOptions{})
	l.end(s)
	lat := time.Since(t0)
	if w.corrupt != nil {
		w.corrupt(w.buf)
	}
	s = l.begin("bench.verify")
	err := checkSorted(w.buf, want)
	l.end(s)
	return len(w.buf), lat, err
}

func (w *sortLarge) stats() counters { return readCounters(w.rt.Scheduler()) }

func (w *sortLarge) close() { w.rt.Close() }
