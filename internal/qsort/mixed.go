package qsort

import (
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/teamsync"
)

// This file implements the mixed-mode parallel Quicksort of the paper's
// Algorithm 11: a data-parallel partitioning step executed by a team of np
// threads (the block-neutralization scheme of Tsigas & Zhang, reference [18]
// of the paper, §5), after which the thread with local id 0 spawns the two
// subsequences as new tasks whose thread requirement is chosen by
// getBestNp. When a task's requirement reaches 1, it degenerates to the
// task-parallel quicksort of Algorithm 10.

// MMOptions are the tunable parameters of the mixed-mode quicksort (§5).
// Zero values select the paper's defaults.
type MMOptions struct {
	// Cutoff is the subsequence length below which the sequential STL-style
	// sort takes over (default 512).
	Cutoff int
	// BlockSize is the element count per partitioning block (default 4096).
	BlockSize int
	// MinBlocksPerThread controls getBestNp: a partitioning thread must have
	// at least this many blocks to work on (default 128).
	MinBlocksPerThread int
}

func (o MMOptions) withDefaults() MMOptions {
	if o.Cutoff < 2 {
		o.Cutoff = DefaultCutoff
	}
	if o.BlockSize < 1 {
		o.BlockSize = DefaultBlockSize
	}
	if o.MinBlocksPerThread < 1 {
		o.MinBlocksPerThread = DefaultMinBlocksPerThread
	}
	return o
}

// BestNp is the paper's getBestNp(n): the largest power of two np ≤ maxTeam
// such that each of the np threads has at least minBlocks blocks of the
// partitioning step to work on ("to achieve better balancing, we decided to
// only allow powers of two as the number of threads for a task"). Always ≥ 1.
func BestNp(n, blockSize, minBlocks, maxTeam int) int {
	np := 1
	per := blockSize * minBlocks
	for np*2 <= maxTeam && n >= 2*np*per {
		np *= 2
	}
	return np
}

// MixedMode sorts data with the mixed-mode parallel quicksort on the
// team-building scheduler (the tables' "MMPar" column). It blocks until the
// sort completes: the sort runs as its own one-shot task group, so
// concurrent sorts on the same scheduler do not wait on each other.
func MixedMode[T Ordered](s *core.Scheduler, data []T, opt MMOptions) {
	g := s.NewGroup()
	MixedModeGroup(g, data, opt)
	g.Wait()
}

// MixedModeGroup spawns the mixed-mode quicksort of data into the
// caller-supplied group g and returns immediately; data is sorted once
// g.Wait() observes the group's quiescence. All recursive subtasks
// (including fork-join fallbacks) inherit g.
func MixedModeGroup[T Ordered](g *core.Group, data []T, opt MMOptions) {
	if t := MixedModeRoot(g.Scheduler().MaxTeam(), data, opt); t != nil {
		g.Spawn(t)
	}
}

// MixedModeRoot returns the root task of the mixed-mode quicksort over
// data, for batched submission; maxTeam is the target scheduler's
// Scheduler.MaxTeam(). It returns nil when there is nothing to sort.
func MixedModeRoot[T Ordered](maxTeam int, data []T, opt MMOptions) core.Task {
	opt = opt.withDefaults()
	if len(data) < 2 {
		return nil
	}
	np := BestNp(len(data), opt.BlockSize, opt.MinBlocksPerThread, maxTeam)
	if np == 1 {
		// Algorithm 11 line 1: "if np = 1 then return qsort(data, n)".
		return ForkJoinRoot(data, opt.Cutoff)
	}
	// One fork-task pool serves every task-parallel fallback of this sort
	// tree, so the fork-join tails spawn without allocating.
	return newMMTask(data, np, opt, NewForkPool[T](opt.Cutoff))
}

// mmTask is one mixed-mode quicksort task: a data-parallel partitioning of
// its subsequence by a team of np threads, followed by two spawned subtasks.
type mmTask[T Ordered] struct {
	ps  *parState[T]
	np  int
	opt MMOptions
	fp  *ForkPool[T] // shared across the sort tree's fork-join fallbacks
}

func newMMTask[T Ordered](data []T, np int, opt MMOptions, fp *ForkPool[T]) *mmTask[T] {
	return &mmTask[T]{ps: newParState(data, np, opt.BlockSize), np: np, opt: opt, fp: fp}
}

func (t *mmTask[T]) Threads() int { return t.np }

func (t *mmTask[T]) Run(ctx *core.Ctx) {
	ps := t.ps
	ps.phase1()
	if ctx.LocalID() != 0 {
		// Algorithm 11: only the thread with local id 0 continues after the
		// partitioning step; the other team members become available for the
		// next task as soon as the coordinator hands one out.
		return
	}
	ps.fanin.WaitZero()
	split := ps.cleanup()
	data := ps.data
	if split == 0 || split == len(data) {
		// Degenerate pivot (can only happen with an extremal pivot value,
		// e.g. heavily duplicated input): the value-based parallel partition
		// cannot guarantee progress, so fall back to the task-parallel sort,
		// whose Hoare partition can.
		t.spawnFork(ctx, data)
		return
	}
	t.spawnPart(ctx, data[:split])
	t.spawnPart(ctx, data[split:])
}

// spawnPart spawns one partitioned subsequence with the thread requirement
// chosen by getBestNp (Algorithm 11 lines 6–7). The cancellation check sits
// here — on local id 0's single-member spawn path, never inside the
// collective phases — so a canceled sort stops growing its tree without
// desynchronizing the team's fan-in.
func (t *mmTask[T]) spawnPart(ctx *core.Ctx, part []T) {
	if len(part) < 2 || ctx.Canceled() {
		return
	}
	np := BestNp(len(part), t.opt.BlockSize, t.opt.MinBlocksPerThread,
		ctx.Scheduler().MaxTeam())
	if np == 1 {
		t.spawnFork(ctx, part)
		return
	}
	ctx.Spawn(newMMTask(part, np, t.opt, t.fp))
}

func (t *mmTask[T]) spawnFork(ctx *core.Ctx, part []T) {
	if ctx.Canceled() {
		return // cooperative cancellation: see spawnPart
	}
	t.fp.Spawn(ctx, part)
}

// parState is the shared state of one data-parallel partitioning step.
// The array is divided into nb full blocks of blockSize elements plus a
// trailing partial block handled by the sequential cleanup. Team threads
// acquire fresh blocks from the two ends (the par.Claimer end-pointer
// acquisition) and neutralize pairs of blocks; the cleanup (thread 0)
// pairs leftover blocks, compacts the at most np unfinished blocks per
// side next to the middle with whole-block content swaps, and finishes
// with a sequential partition of the remaining middle.
type parState[T Ordered] struct {
	data  []T
	pv    T
	block int
	nb    int

	claim   *par.Claimer // two-ended block acquisition
	neutral []bool       // per block; owner-written, read after fan-in
	fanin   *teamsync.Counter
}

func newParState[T Ordered](data []T, np, blockSize int) *parState[T] {
	n := len(data)
	ps := &parState[T]{
		data:  data,
		pv:    med3(data[0], data[n/2], data[n-1]),
		block: blockSize,
		nb:    n / blockSize,
		fanin: teamsync.NewCounter(np),
	}
	ps.claim = par.NewClaimer(ps.nb)
	ps.neutral = make([]bool, ps.nb)
	return ps
}

// phase1 is the parallel neutralization loop run by every team member:
// "Each thread takes one block from each side of the array to be sorted,
// and tries to neutralize blocks ... As soon as one of the blocks has been
// neutralized, the thread tries to acquire another block from the same side
// of the array, until we run out of free blocks" (§5).
func (ps *parState[T]) phase1() {
	defer ps.fanin.Done()
	i, okL := ps.claim.Left()
	j, okR := ps.claim.Right()
	L, R := ps.scanOf(i), ps.scanOf(j)
	for okL && okR {
		neutralize(ps.data, ps.pv, &L, &R)
		if L.exhausted() {
			ps.neutral[i] = true
			i, okL = ps.claim.Left()
			L = ps.scanOf(i)
		}
		if R.exhausted() {
			ps.neutral[j] = true
			j, okR = ps.claim.Right()
			R = ps.scanOf(j)
		}
	}
	// At most one unfinished block per side remains non-neutral; the cleanup
	// phase collects it from the neutral bitmap.
}

// scanOf returns a fresh neutralization scan of block b.
func (ps *parState[T]) scanOf(b int) blockScan {
	lo := b * ps.block
	return blockScan{lo: lo, hi: lo + ps.block, pos: lo}
}

// cleanup runs on the team's local id 0 after all threads have deposited
// (fan-in): it pairs leftover unfinished blocks, compacts the survivors next
// to the middle gap, sequentially partitions the middle and the trailing
// partial block, and returns the final split position.
func (ps *parState[T]) cleanup() int {
	data, pv, B, nb := ps.data, ps.pv, ps.block, ps.nb
	n := len(data)
	la := ps.claim.TakenLeft()
	ra := ps.claim.TakenRight()

	// Phase 2: pair unfinished left blocks with unfinished right blocks,
	// continuing neutralization sequentially (the paper replaces [18]'s
	// single-collector phase with a producer/consumer exchanger; with the
	// cleanup serialized on one thread, direct pairing is equivalent).
	var lrem, rrem []int
	for i := 0; i < la; i++ {
		if !ps.neutral[i] {
			lrem = append(lrem, i)
		}
	}
	for i := nb - ra; i < nb; i++ {
		if !ps.neutral[i] {
			rrem = append(rrem, i)
		}
	}
	li, ri := 0, 0
	var L, R blockScan // the zero scan is exhausted, so the loop loads a block
	for {
		if L.exhausted() {
			if li == len(lrem) {
				break
			}
			L = ps.scanOf(lrem[li])
		}
		if R.exhausted() {
			if ri == len(rrem) {
				break
			}
			R = ps.scanOf(rrem[ri])
		}
		neutralize(data, pv, &L, &R)
		if L.exhausted() {
			ps.neutral[lrem[li]] = true
			li++
		}
		if R.exhausted() {
			ps.neutral[rrem[ri]] = true
			ri++
		}
	}
	lrem = lrem[li:]
	rrem = rrem[ri:]

	// Phase 3a: compact the unfinished left blocks to the high end of the
	// left-acquired region by whole-block content swaps with neutral blocks,
	// so that blocks [0, leftBoundary) are all ≤ pivot.
	leftBoundary := la - len(lrem)
	var srcL, dstL []int
	for _, b := range lrem {
		if b < leftBoundary {
			srcL = append(srcL, b)
		}
	}
	for i := leftBoundary; i < la; i++ {
		if ps.neutral[i] {
			dstL = append(dstL, i)
		}
	}
	for k := range srcL {
		swapRanges(data, srcL[k]*B, dstL[k]*B, B)
	}

	// Phase 3b: symmetric compaction on the right: blocks
	// [rightBoundary, nb) are all ≥ pivot.
	rightBoundary := nb - ra + len(rrem)
	var srcR, dstR []int
	for _, b := range rrem {
		if b >= rightBoundary {
			srcR = append(srcR, b)
		}
	}
	for i := nb - ra; i < rightBoundary; i++ {
		if ps.neutral[i] {
			dstR = append(dstR, i)
		}
	}
	for k := range srcR {
		swapRanges(data, srcR[k]*B, dstR[k]*B, B)
	}

	// Phase 3c: sequential partition of the contiguous middle region.
	midLo, midHi := leftBoundary*B, rightBoundary*B
	m1 := midLo + PartitionByValue(data[midLo:midHi], pv)

	// Phase 3d: fold in the trailing partial block [nb·B, n). Its ≤-chunk is
	// exchanged with ≥-elements adjacent to the split, keeping the final
	// ≤/≥ regions contiguous.
	t0 := nb * B
	if t0 >= n {
		return m1
	}
	k := PartitionByValue(data[t0:], pv) // [t0, t0+k) ≤ pv, rest ≥ pv
	if k == 0 {
		return m1
	}
	g := t0 - m1 // ≥-elements between the split and the tail
	if g >= k {
		swapRanges(data, m1, t0, k)
		return m1 + k
	}
	// The ≥-gap is smaller than the ≤-chunk: swap the gap with the chunk's
	// tail end (no overlap since t0+k-g > t0 ⇔ k > g).
	if g > 0 {
		swapRanges(data, m1, t0+k-g, g)
	}
	return t0 + k - g
}
