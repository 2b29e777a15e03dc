package qsort

// The partition kernels classify elements blockLen at a time (Edelkamp &
// Weiß, "BlockQuicksort: Avoiding Branch Mispredictions in Quicksort", ESA
// 2016): a scan records the offsets of misplaced elements with branch-free
// increments, then the misplaced elements of a left and a right chunk are
// swapped pairwise. The only data-dependent branches left are loop bounds,
// which the hardware predicts, so unpredictable keys no longer pay a
// misprediction per element. HoarePartition and the team neutralization
// share this one flag-then-swap step.

// blockLen is the chunk length of the flag-then-swap step; an offset within
// a chunk fits in a uint8, so both offset buffers stay on the stack.
const blockLen = 128

// chunk is one scanned chunk data[base:base+size] of the flag-then-swap
// step. offs holds the ascending offsets, relative to base, of its misplaced
// elements; those still waiting for a swap partner are offs[start:start+num].
// A left chunk hands out its offsets lowest first, a right chunk highest
// first (its start stays 0), so the swaps pair elements from the outside in,
// as Hoare's scalar scans do, and a reversed input comes out sorted.
type chunk struct {
	base, size, start, num int
	offs                   [blockLen]uint8
}

// The flag loops store every offset and advance the count only for a
// misplaced element, so they hold no data-dependent branch. The count never
// exceeds the offset being stored, so masking it with blockLen−1 changes
// nothing but lets the compiler drop the bounds check.

// flagLeft scans data[lo:hi] (at most blockLen elements) as a left chunk,
// where elements ≥ pv are misplaced. Flagging equal keys on both sides is
// Hoare's rule: it splits runs of pivot-equal keys evenly.
func flagLeft[T Ordered](c *chunk, data []T, lo, hi int, pv T) {
	offs, n := &c.offs, 0
	for k, v := range data[lo:hi] {
		offs[n&(blockLen-1)] = uint8(k)
		inc := 0
		if v >= pv {
			inc = 1
		}
		n += inc
	}
	c.base, c.size, c.start, c.num = lo, hi-lo, 0, n
}

// flagRight scans data[lo:hi] (at most blockLen elements) as a right chunk,
// where elements ≤ pv are misplaced.
func flagRight[T Ordered](c *chunk, data []T, lo, hi int, pv T) {
	offs, n := &c.offs, 0
	for k, v := range data[lo:hi] {
		offs[n&(blockLen-1)] = uint8(k)
		inc := 0
		if v <= pv {
			inc = 1
		}
		n += inc
	}
	c.base, c.size, c.start, c.num = lo, hi-lo, 0, n
}

// flagBoth is flagLeft on data[llo:llo+m] and flagRight on
// data[rlo:rlo+m] in one pass, so the two independent counts overlap in the
// pipeline.
func flagBoth[T Ordered](l, r *chunk, data []T, llo, rlo, m int, pv T) {
	lb := data[llo : llo+m]
	rb := data[rlo : rlo+m][:len(lb)]
	lofs, rofs := &l.offs, &r.offs
	nl, nr := 0, 0
	for k, v := range lb {
		lofs[nl&(blockLen-1)] = uint8(k)
		rofs[nr&(blockLen-1)] = uint8(k)
		il, ir := 0, 0
		if v >= pv {
			il = 1
		}
		if rb[k] <= pv {
			ir = 1
		}
		nl += il
		nr += ir
	}
	l.base, l.size, l.start, l.num = llo, m, 0, nl
	r.base, r.size, r.start, r.num = rlo, m, 0, nr
}

// swapFlagged exchanges the next min(l.num, r.num) misplaced elements of
// the left chunk with those of the right chunk, leaving at least one of the
// two chunks fully resolved (num == 0): a resolved left chunk holds only
// elements ≤ pv, a resolved right chunk only elements ≥ pv.
func swapFlagged[T Ordered](data []T, l, r *chunk) {
	k := min(l.num, r.num)
	lo, ro := l.offs[l.start:l.start+k], r.offs[r.num-k:r.num]
	lb, rb := l.base, r.base
	l.start += k
	l.num -= k
	r.num -= k
	for i, o := range lo {
		a, b := lb+int(o), rb+int(ro[len(ro)-1-i])
		data[a], data[b] = data[b], data[a]
	}
}

// pending returns how many elements of the chunk still wait for the
// partition: its size while any misplaced element is unresolved, else 0.
func (c *chunk) pending() int {
	if c.num == 0 {
		return 0
	}
	return c.size
}

// HoarePartition partitions data around the median of its first, middle and
// last elements using Hoare's two-pointer scheme and returns the split point
// s with 0 < s < len(data): every element of data[:s] is ≤ every element of
// data[s:]. The strict bounds guarantee progress for the recursive sorts
// even on constant inputs. len(data) must be ≥ 2.
//
// The two pointers advance a chunk at a time with the branch-free
// flag-then-swap step; a scalar Hoare scan finishes the at most one chunk
// left unresolved in the middle.
func HoarePartition[T Ordered](data []T) int {
	n := len(data)
	if n == 2 {
		// The med3 argument positions coincide for n = 2; handle directly
		// (the strict-bounds guarantee needs three distinct sample indices).
		if data[1] < data[0] {
			data[0], data[1] = data[1], data[0]
		}
		return 1
	}
	pv := med3(data[0], data[n/2], data[n-1])

	// Invariant: data[:l] ≤ pv ≤ data[r:]. A chunk joins its side once
	// resolved, and each round resolves at least one, so l > 0 or r < n on
	// exit.
	l, r := 0, n
	var L, R chunk
	for {
		// Step over elements already on their side before flagging a fresh
		// chunk: on random keys this stops within a few elements, on runs
		// (sorted, pipe-organ) it is as cheap as Hoare's scalar scan.
		if L.num == 0 {
			l += countLess(data[l:r-R.pending()], pv)
		}
		if R.num == 0 {
			r -= countGreater(data[l+L.pending():r], pv)
		}
		free := r - l - L.pending() - R.pending()
		m := min(blockLen, free)
		if L.num == 0 && R.num == 0 {
			m = min(blockLen, free/2)
		}
		if m == 0 {
			break
		}
		switch {
		case L.num == 0 && R.num == 0:
			flagBoth(&L, &R, data, l, r-m, m, pv)
		case L.num == 0:
			flagLeft(&L, data, l, l+m, pv)
		default:
			flagRight(&R, data, r-m, r, pv)
		}
		swapFlagged(data, &L, &R)
		if L.num == 0 {
			l += L.size
		}
		if R.num == 0 {
			r -= R.size
		}
	}
	// Narrow to the unresolved part of a leftover chunk: below a left
	// chunk's lowest waiting element everything is ≤ pv, above a right
	// chunk's highest one everything is ≥ pv.
	if L.num > 0 {
		l = L.base + int(L.offs[L.start])
	}
	if R.num > 0 {
		r = R.base + int(R.offs[R.num-1]) + 1
	}

	// Scalar Hoare on [l, r). For l > 0 and r < n, data[l-1] ≤ pv and
	// data[r] ≥ pv stop the scans and bound the split to [l, r]. l = 0 means
	// no swap happened (a swap resolves the first left offset), so data[r:]
	// holds only elements > pv and the med3 samples ≤ pv lie in [0, r): the
	// j scan stops inside and the split is > 0. Symmetrically r = n keeps
	// the split < n.
	i, j := l-1, r
	for {
		for {
			i++
			if data[i] >= pv {
				break
			}
		}
		for {
			j--
			if data[j] <= pv {
				break
			}
		}
		if i >= j {
			return j + 1
		}
		data[i], data[j] = data[j], data[i]
	}
}

// countLess returns the length of the longest prefix of d below pv.
func countLess[T Ordered](d []T, pv T) int {
	for k, v := range d {
		if v >= pv {
			return k
		}
	}
	return len(d)
}

// countGreater returns the length of the longest suffix of d above pv.
func countGreater[T Ordered](d []T, pv T) int {
	for k := len(d) - 1; k >= 0; k-- {
		if d[k] <= pv {
			return len(d) - 1 - k
		}
	}
	return len(d)
}

// PartitionByValue partitions data around the explicit pivot value pv,
// returning s such that data[:s] ≤ pv and data[s:] ≥ pv. Unlike
// HoarePartition, s may be 0 or len(data) when pv is extremal; callers must
// handle the degenerate split. This is the sequential kernel used by the
// data-parallel partitioning step for the middle region.
func PartitionByValue[T Ordered](data []T, pv T) int {
	i, j := 0, len(data)-1
	for {
		for i <= j && data[i] <= pv {
			i++
		}
		for i <= j && data[j] >= pv {
			j--
		}
		if i >= j {
			return i
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}

// blockScan tracks the neutralization progress of one block: the half-open
// element range [lo, hi) with [lo, pos) already verified/neutralized.
type blockScan struct {
	lo, hi, pos int
}

func (b *blockScan) exhausted() bool { return b.pos >= b.hi }

// neutralize runs the Tsigas–Zhang neutralization loop on a left and a right
// block: left elements ≥ pv and right elements ≤ pv are misplaced and are
// swapped pairwise, blockLen-element chunks at a time, by the flag-then-swap
// step of HoarePartition. It advances both scans until at least one block is
// exhausted (neutralized): an exhausted left block contains only elements
// ≤ pv, an exhausted right block only elements ≥ pv. The other block's pos
// stops at its first unresolved element.
func neutralize[T Ordered](data []T, pv T, l, r *blockScan) {
	var L, R chunk
	for (L.num > 0 || !l.exhausted()) && (R.num > 0 || !r.exhausted()) {
		switch {
		case L.num == 0 && R.num == 0:
			m := min(blockLen, l.hi-l.pos, r.hi-r.pos)
			flagBoth(&L, &R, data, l.pos, r.pos, m, pv)
			l.pos += m
			r.pos += m
		case L.num == 0:
			m := min(blockLen, l.hi-l.pos)
			flagLeft(&L, data, l.pos, l.pos+m, pv)
			l.pos += m
		default:
			m := min(blockLen, r.hi-r.pos)
			flagRight(&R, data, r.pos, r.pos+m, pv)
			r.pos += m
		}
		swapFlagged(data, &L, &R)
	}
	if L.num > 0 {
		l.pos = L.base + int(L.offs[L.start])
	}
	if R.num > 0 {
		r.pos = R.base + int(R.offs[0])
	}
}

// swapRanges exchanges data[a:a+k] and data[b:b+k]; the ranges must not
// overlap.
func swapRanges[T Ordered](data []T, a, b, k int) {
	for i := 0; i < k; i++ {
		data[a+i], data[b+i] = data[b+i], data[a+i]
	}
}
