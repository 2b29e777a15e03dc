// Package harness regenerates the paper's evaluation tables (Tables 1–10):
// the parallel Quicksort comparison across four input distributions, several
// input sizes, and seven sorting configurations, reporting average and best
// running times over a number of repetitions plus speedups relative to the
// best sequential implementation.
//
// The paper's four machines map to worker counts (8, 16, 32, 32, 64); on a
// host with fewer CPUs the workers run oversubscribed.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cilk"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/distpar"
	"repro/internal/msort"
	"repro/internal/qsort"
	"repro/internal/ssort"
)

// Algorithm identifies one column group of the paper's tables.
type Algorithm int

const (
	SeqSTL     Algorithm = iota // best sequential sort (our introsort)
	SeqQS                       // handwritten sequential quicksort
	Fork                        // Algorithm 10 on the team-building scheduler
	Randfork                    // Algorithm 10 on the classic random work-stealer
	Cilk                        // Algorithm 10 on the Cilk-style scheduler
	CilkSample                  // sample-pivot variant on the Cilk-style scheduler
	MMPar                       // Algorithm 11 (mixed-mode) on the team-building scheduler
	SSort                       // mixed-mode samplesort (internal/ssort) on the team builder
	MSort                       // mixed-mode merge sort (internal/msort) on the team builder
	numAlgorithms
)

// String returns the column label used in the paper (SSort is this
// repository's extension column).
func (a Algorithm) String() string {
	switch a {
	case SeqSTL:
		return "Seq/STL"
	case SeqQS:
		return "SeqQS"
	case Fork:
		return "Fork"
	case Randfork:
		return "Randfork"
	case Cilk:
		return "Cilk"
	case CilkSample:
		return "Cilk sample"
	case MMPar:
		return "MMPar"
	case SSort:
		return "SSort"
	case MSort:
		return "MSort"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// algNames maps every accepted -algos name (lower-case) to its column.
var algNames = map[string]Algorithm{
	"seqstl": SeqSTL, "seq": SeqSTL, "stl": SeqSTL, "seq/stl": SeqSTL,
	"seqqs":      SeqQS,
	"fork":       Fork,
	"randfork":   Randfork,
	"cilk":       Cilk,
	"cilksample": CilkSample, "cilk-sample": CilkSample, "cilk sample": CilkSample,
	"mmpar": MMPar,
	"ssort": SSort, "samplesort": SSort,
	"msort": MSort, "mergesort": MSort,
}

// ParseAlgorithm resolves an algorithm column name (e.g. "mmpar",
// "ssort"), case-insensitively.
func ParseAlgorithm(s string) (Algorithm, error) {
	if a, ok := algNames[strings.ToLower(strings.TrimSpace(s))]; ok {
		return a, nil
	}
	names := make([]string, 0, len(algNames))
	for name := range algNames {
		names = append(names, name)
	}
	sort.Strings(names)
	return 0, fmt.Errorf("harness: unknown algorithm %q (want one of %s)",
		s, strings.Join(names, "|"))
}

// ParseAlgorithms resolves a comma-separated list of algorithm column
// names — the shared -algos flag parser of the command-line harnesses.
func ParseAlgorithms(csv string) ([]Algorithm, error) {
	var out []Algorithm
	for _, f := range strings.Split(csv, ",") {
		a, err := ParseAlgorithm(f)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// ParseSizes parses a comma-separated list of positive element counts —
// the shared -sizes flag parser of the command-line harnesses.
func ParseSizes(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("harness: bad size %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseKinds parses a comma-separated list of input distribution names —
// the shared -dists flag parser of the command-line harnesses.
func ParseKinds(csv string) ([]dist.Kind, error) {
	var out []dist.Kind
	for _, f := range strings.Split(csv, ",") {
		k, err := dist.Parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Config describes one table's experiment grid.
type Config struct {
	Name     string      // table caption
	P        int         // workers ("hardware threads")
	Reps     int         // repetitions per cell (the paper uses 10)
	Sizes    []int       // input sizes (rows within each distribution)
	Kinds    []dist.Kind // distributions (row groups)
	WithCilk bool        // include the Cilk columns (Tables 1, 2, 5, 6)
	Algs     []Algorithm // algorithm columns; empty selects the default set
	Seed     uint64

	// Sorting tunables (§5 defaults when zero).
	Cutoff    int
	BlockSize int
	MinBlocks int
}

func (c Config) withDefaults() Config {
	if c.Reps < 1 {
		c.Reps = 1
	}
	if c.P < 1 {
		c.P = 1
	}
	if len(c.Sizes) == 0 {
		c.Sizes = QuickSizes
	}
	if len(c.Kinds) == 0 {
		c.Kinds = dist.Kinds
	}
	if c.Cutoff < 2 {
		c.Cutoff = qsort.DefaultCutoff
	}
	if c.BlockSize < 1 {
		c.BlockSize = qsort.DefaultBlockSize
	}
	if c.MinBlocks < 1 {
		c.MinBlocks = qsort.DefaultMinBlocksPerThread
	}
	if len(c.Algs) == 0 {
		c.Algs = []Algorithm{SeqSTL, SeqQS, Fork, Randfork, MMPar, SSort, MSort}
		if c.WithCilk {
			c.Algs = []Algorithm{SeqSTL, SeqQS, Fork, Randfork, Cilk, CilkSample, MMPar, SSort, MSort}
		}
	}
	return c
}

// PaperSizes are the input sizes of the published tables.
var PaperSizes = []int{10_000_000, 100_000_000, 1_000_000_000,
	1<<23 - 1, 1<<25 - 1, 1<<27 - 1}

// FullSizes are the paper sizes that fit a ~20 GB machine in reasonable time.
var FullSizes = []int{10_000_000, 100_000_000, 1<<23 - 1, 1<<25 - 1, 1<<27 - 1}

// QuickSizes is a CI-friendly grid that still reaches team sizes ≥ 8 with
// the paper's default getBestNp parameters.
var QuickSizes = []int{1_000_000, 10_000_000, 1<<23 - 1}

// Cell is one measurement aggregate.
type Cell struct {
	Avg  float64 // seconds, mean over repetitions
	Best float64 // seconds, minimum over repetitions
}

// Row is one (distribution, size) line of a table.
type Row struct {
	Kind  dist.Kind
	Size  int
	Cells [numAlgorithms]Cell
	Ran   [numAlgorithms]bool
}

// Result is a completed experiment grid.
type Result struct {
	Cfg  Config
	Rows []Row
}

// Mode selects the aggregation of a rendered table: the paper publishes an
// "average running times" and a "best (minimum) running time" table per
// machine.
type Mode int

const (
	Avg Mode = iota
	Best
)

func (m Mode) String() string {
	if m == Avg {
		return "average"
	}
	return "best"
}

// Run executes the experiment grid. Progress lines are written to progress
// (use io.Discard to silence). Every sorted output is verified.
func Run(cfg Config, progress io.Writer) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Cfg: cfg}
	algs := cfg.Algs
	var buf []int32
	for _, kind := range cfg.Kinds {
		for _, size := range cfg.Sizes {
			input := generateInput(cfg, kind, size)
			if cap(buf) < size {
				buf = make([]int32, size)
			}
			row := Row{Kind: kind, Size: size}
			for _, alg := range algs {
				cell, err := measure(cfg, alg, input, buf[:size])
				if err != nil {
					return nil, fmt.Errorf("%v/%v/%d: %w", alg, kind, size, err)
				}
				row.Cells[alg] = cell
				row.Ran[alg] = true
				fmt.Fprintf(progress, "%-11s %-9s n=%-11d avg=%8.4fs best=%8.4fs\n",
					alg, kind, size, cell.Avg, cell.Best)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// generateInput produces one table row's input. Large inputs are filled by
// a worker team on a short-lived scheduler (shut down before any timing
// starts); the output is bit-identical to sequential generation, so table
// results do not depend on the path taken.
func generateInput(cfg Config, kind dist.Kind, size int) []int32 {
	return distpar.GenerateWithWorkers(cfg.P, kind, size, cfg.Seed+uint64(size))
}

// measure times one algorithm cfg.Reps times on copies of input.
func measure(cfg Config, alg Algorithm, input, buf []int32) (Cell, error) {
	var cell Cell
	cell.Best = -1

	runOnce := func(sortFn func([]int32)) error {
		copy(buf, input)
		start := time.Now()
		sortFn(buf)
		el := time.Since(start).Seconds()
		cell.Avg += el
		if cell.Best < 0 || el < cell.Best {
			cell.Best = el
		}
		if !qsort.IsSorted(buf) {
			return fmt.Errorf("output not sorted")
		}
		return nil
	}

	var err error
	switch alg {
	case SeqSTL:
		for r := 0; r < cfg.Reps && err == nil; r++ {
			err = runOnce(func(d []int32) { qsort.Introsort(d) })
		}
	case SeqQS:
		for r := 0; r < cfg.Reps && err == nil; r++ {
			err = runOnce(func(d []int32) { qsort.SequentialQuicksortCutoff(d, cfg.Cutoff) })
		}
	case Fork:
		s := core.New(core.Options{P: cfg.P, Seed: cfg.Seed})
		defer s.Shutdown()
		for r := 0; r < cfg.Reps && err == nil; r++ {
			err = runOnce(func(d []int32) { qsort.ForkJoinCore(s, d, cfg.Cutoff) })
		}
	case Randfork:
		s := classic.New(classic.Options{P: cfg.P, Seed: cfg.Seed})
		defer s.Shutdown()
		for r := 0; r < cfg.Reps && err == nil; r++ {
			err = runOnce(func(d []int32) { qsort.ForkJoinClassic(s, d, cfg.Cutoff) })
		}
	case Cilk:
		s := cilk.New(cilk.Options{P: cfg.P, Seed: cfg.Seed})
		defer s.Shutdown()
		for r := 0; r < cfg.Reps && err == nil; r++ {
			err = runOnce(func(d []int32) { qsort.ForkJoinCilk(s, d, cfg.Cutoff) })
		}
	case CilkSample:
		s := cilk.New(cilk.Options{P: cfg.P, Seed: cfg.Seed})
		defer s.Shutdown()
		for r := 0; r < cfg.Reps && err == nil; r++ {
			err = runOnce(func(d []int32) { qsort.SampleCilk(s, d, cfg.Cutoff) })
		}
	case MMPar:
		s := core.New(core.Options{P: cfg.P, Seed: cfg.Seed})
		defer s.Shutdown()
		opt := qsort.MMOptions{Cutoff: cfg.Cutoff, BlockSize: cfg.BlockSize,
			MinBlocksPerThread: cfg.MinBlocks}
		for r := 0; r < cfg.Reps && err == nil; r++ {
			err = runOnce(func(d []int32) { qsort.MixedMode(s, d, opt) })
		}
	case SSort:
		s := core.New(core.Options{P: cfg.P, Seed: cfg.Seed})
		defer s.Shutdown()
		// MinPerThread mirrors the MMPar team quota (BlockSize·MinBlocks)
		// so both mixed-mode columns form teams at the same scales.
		opt := ssort.Options{Cutoff: cfg.Cutoff,
			MinPerThread: cfg.BlockSize * cfg.MinBlocks}
		for r := 0; r < cfg.Reps && err == nil; r++ {
			err = runOnce(func(d []int32) { ssort.Sort(s, d, opt) })
		}
	case MSort:
		s := core.New(core.Options{P: cfg.P, Seed: cfg.Seed})
		defer s.Shutdown()
		// The merge quota mirrors the other mixed-mode columns so all three
		// form teams at the same scales.
		opt := msort.Options{Cutoff: cfg.Cutoff,
			MinPerThread: cfg.BlockSize * cfg.MinBlocks}
		for r := 0; r < cfg.Reps && err == nil; r++ {
			err = runOnce(func(d []int32) { msort.Sort(s, d, opt) })
		}
	default:
		err = fmt.Errorf("unknown algorithm %v", alg)
	}
	if err != nil {
		return Cell{}, err
	}
	cell.Avg /= float64(cfg.Reps)
	return cell, nil
}
