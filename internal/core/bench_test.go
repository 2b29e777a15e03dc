package core

// Core microbenchmarks: the per-task hot path of the scheduler, recorded by
// scripts/bench.sh as BENCH_core.json so perf PRs leave a measured
// trajectory. The suite covers the paths the paper's "no extra overhead for
// r = 1 tasks" claim depends on:
//
//   SpawnJoinPingPong   spawn one task, join it (TaskGroup), repeat — the
//                       fork-join latency floor of Algorithm 10 recursion
//   EmptyTaskFanout     waves of empty tasks through spawn→run→done — the
//                       interior throughput ceiling (allocs/op matters here)
//   StealImbalance      one producer, p−1 thieves — the steal path under a
//                       pathological imbalance
//   InjectedTakeEmpty   the idle coordinator's poll of the inject queues
//                       when no external work exists
//   InjectLatency       external submission end to end: admit → take → run
//                       → quiescence wakeup
//   CounterContention   the in-flight accounting pair (spawn-side increment,
//                       completion-side decrement) on one shared Group,
//                       hammered from p workers
//
// The benchmarks run on tiny teams so they are meaningful on any machine;
// wall-clock numbers are only comparable within one host, which is all the
// recorded trajectory needs.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// benchNoop is a reusable single-threaded no-op task. The same value is
// spawned over and over, so benchmarks exercise only the scheduler's own
// per-task costs (node, queue, accounting), not task construction.
type benchNoop struct{}

func (benchNoop) Threads() int { return 1 }
func (benchNoop) Run(*Ctx)     {}

// benchCountdown decrements a shared counter; like benchNoop the one value
// is spawned repeatedly.
type benchCountdown struct {
	remaining atomic.Int64
}

func (t *benchCountdown) Threads() int { return 1 }
func (t *benchCountdown) Run(*Ctx)     { t.remaining.Add(-1) }

// restoreGMP undoes the GOMAXPROCS raise of Scheduler.New when the
// benchmark ends, so the testing package does not warn about leaked state.
func restoreGMP(b *testing.B) {
	old := runtime.GOMAXPROCS(0)
	b.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// onWorker runs fn inside a task on s and blocks until fn returns, giving
// benchmarks an interior (Ctx-bearing) vantage point.
func onWorker(s *Scheduler, fn func(ctx *Ctx)) {
	done := make(chan struct{})
	s.Spawn(Solo(func(ctx *Ctx) {
		fn(ctx)
		close(done)
	}))
	<-done
}

// drainOwn helps run the worker's own level-0 queue until the countdown
// reaches zero (what TaskGroup.Wait does, without the steal rounds).
func drainOwn(ctx *Ctx, ct *benchCountdown) {
	w := ctx.w
	for ct.remaining.Load() > 0 {
		if n := w.queues[0].PopBottom(); n != nil {
			w.runSolo(n)
		} else {
			runtime.Gosched()
		}
	}
}

func BenchmarkSpawnJoinPingPong(b *testing.B) {
	restoreGMP(b)
	s := New(Options{P: 2})
	defer s.Shutdown()
	b.ReportAllocs()
	onWorker(s, func(ctx *Ctx) {
		var tg TaskGroup
		child := benchNoop{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tg.Spawn(ctx, child)
			tg.Wait(ctx)
		}
	})
}

func BenchmarkEmptyTaskFanout(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			restoreGMP(b)
			s := New(Options{P: p})
			defer s.Shutdown()
			b.ReportAllocs()
			onWorker(s, func(ctx *Ctx) {
				const wave = 256
				ct := &benchCountdown{}
				b.ResetTimer()
				for left := b.N; left > 0; {
					k := wave
					if k > left {
						k = left
					}
					left -= k
					ct.remaining.Store(int64(k))
					for i := 0; i < k; i++ {
						ctx.Spawn(ct)
					}
					drainOwn(ctx, ct)
				}
			})
		})
	}
}

func BenchmarkStealImbalance(b *testing.B) {
	restoreGMP(b)
	const p = 4
	s := New(Options{P: p})
	defer s.Shutdown()
	b.ReportAllocs()
	onWorker(s, func(ctx *Ctx) {
		const wave = 256
		ct := &benchCountdown{}
		b.ResetTimer()
		for left := b.N; left > 0; {
			k := wave
			if k > left {
				k = left
			}
			left -= k
			ct.remaining.Store(int64(k))
			for i := 0; i < k; i++ {
				ctx.Spawn(ct)
			}
			// The producer only yields: every task is drained by thieves,
			// keeping the steal path hot.
			for ct.remaining.Load() > 0 {
				runtime.Gosched()
			}
		}
	})
}

func BenchmarkInjectedTakeEmpty(b *testing.B) {
	s := build(Options{P: 2}) // unstarted: the benchmark is the poll loop
	w := s.workers[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.takeInjected(w) {
			b.Fatal("unexpected injected work")
		}
	}
}

func BenchmarkInjectLatency(b *testing.B) {
	restoreGMP(b)
	s := New(Options{P: 2})
	defer s.Shutdown()
	g := s.NewGroup()
	task := benchNoop{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(task)
	}
}

// BenchmarkCounterContention measures the only per-task shared write left on
// the spawn→run path: the group's padded in-flight counter, when one group
// spans p workers (one large request). Its cost grows with p; a sharded or
// weight-throwing group counter must beat it.
func BenchmarkCounterContention(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			s := build(Options{P: p})
			g := s.NewGroup()
			per := b.N/p + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < p; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					w := s.workers[id]
					// Keep one task permanently in flight so the loop
					// exercises the common (non-quiescing) transition.
					g.inflight.Add(1)
					for j := 0; j < per; j++ {
						g.inflight.Add(1)
						w.taskDone(g)
					}
					w.taskDone(g)
				}(i)
			}
			wg.Wait()
		})
	}
}
