package qsort

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// Micro-benchmarks of the sorting kernels; the table-level benchmarks live
// in the repository root (bench_test.go).

func benchSizes() []int { return []int{1 << 16, 1 << 20} }

// BenchmarkIntrosort times the sequential baseline on Random at 64 Ki and
// on every input distribution at 1 Mi. The block partition kernel removes
// the misprediction cost of unpredictable keys (Random, Gauss, Buckets,
// Staggered) but not the scan itself, which the scalar loop already
// predicted perfectly on Zero, Sorted and Reverse.
func BenchmarkIntrosort(b *testing.B) {
	type input struct {
		k dist.Kind
		n int
	}
	inputs := []input{{dist.Random, 1 << 16}}
	for _, k := range dist.Kinds {
		inputs = append(inputs, input{k, 1 << 20})
	}
	for _, c := range inputs {
		in := dist.Generate(c.k, c.n, 42)
		buf := make([]int32, c.n)
		b.Run(fmt.Sprintf("%v/n=%d", c.k, c.n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * c.n))
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				Introsort(buf)
			}
		})
	}
}

func BenchmarkSequentialQuicksort(b *testing.B) {
	for _, n := range benchSizes() {
		in := dist.Generate(dist.Random, n, 42)
		buf := make([]int32, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				SequentialQuicksort(buf)
			}
		})
	}
}

func BenchmarkHoarePartition(b *testing.B) {
	const n = 1 << 20
	in := dist.Generate(dist.Random, n, 42)
	buf := make([]int32, n)
	b.SetBytes(4 * n)
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		HoarePartition(buf)
	}
}

// BenchmarkParallelPartition measures the data-parallel partitioning step in
// isolation across team sizes — the kernel behind the MMPar advantage.
func BenchmarkParallelPartition(b *testing.B) {
	const n = 1 << 22
	in := dist.Generate(dist.Random, n, 42)
	for _, np := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			restoreGMP(b)
			s := core.New(core.Options{P: np})
			defer s.Shutdown()
			buf := make([]int32, n)
			b.SetBytes(4 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, in)
				b.StartTimer()
				ps := newParState(buf, np, DefaultBlockSize)
				s.Run(core.Func(np, func(ctx *core.Ctx) {
					ps.phase1()
					if ctx.LocalID() == 0 {
						ps.fanin.WaitZero()
						ps.cleanup()
					}
				}))
			}
		})
	}
}

// BenchmarkMixedModeByDistribution mirrors one table row group per
// distribution at a bench-friendly size.
func BenchmarkMixedModeByDistribution(b *testing.B) {
	const n = 1 << 21
	restoreGMP(b)
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	opt := MMOptions{BlockSize: 1024, MinBlocksPerThread: 16}
	for _, k := range dist.Kinds {
		in := dist.Generate(k, n, 42)
		buf := make([]int32, n)
		b.Run(k.String(), func(b *testing.B) {
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				MixedMode(s, buf, opt)
			}
		})
	}
}

func BenchmarkForkJoinByScheduler(b *testing.B) {
	const n = 1 << 21
	in := dist.Generate(dist.Random, n, 42)
	b.Run("core", func(b *testing.B) {
		restoreGMP(b)
		s := core.New(core.Options{P: 8})
		defer s.Shutdown()
		buf := make([]int32, n)
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			copy(buf, in)
			ForkJoinCore(s, buf, DefaultCutoff)
		}
	})
}

// restoreGMP undoes the GOMAXPROCS raise of core.New when the benchmark
// ends, so later benchmarks in the package run at the original setting.
func restoreGMP(b *testing.B) {
	old := runtime.GOMAXPROCS(0)
	b.Cleanup(func() { runtime.GOMAXPROCS(old) })
}
