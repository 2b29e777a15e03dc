package main

import (
	"fmt"

	"repro/internal/query"
)

// The checkers below verify every output the benchmark receives. Each one
// compares against expectations computed at set-up (prefix sums over the
// pre-generated inputs), so a check costs one pass over the output and
// never re-runs the operation it verifies. Sorted order alone is not
// enough: an array overwritten with zeros is sorted, so every sort output is
// also compared by a multiset hash with its input.

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// elemHash is the per-element term of the multiset hash. The multiset hash
// of a slice is the wrapping sum of its terms, so it is independent of
// order and changes when an element is lost, duplicated or altered.
func elemHash(v int32) uint64 { return mix64(uint64(uint32(v)) + 0x9e3779b97f4a7c15) }

func multisetHash(vs []int32) uint64 {
	var h uint64
	for _, v := range vs {
		h += elemHash(v)
	}
	return h
}

// prefixOf returns p with p[i] = the wrapping sum of term(v) over vs[:i].
func prefixOf(vs []int32, term func(int32) uint64) []uint64 {
	p := make([]uint64, len(vs)+1)
	for i, v := range vs {
		p[i+1] = p[i] + term(v)
	}
	return p
}

// checkSorted verifies that out is ascending and holds the multiset whose
// hash is want.
func checkSorted(out []int32, want uint64) error {
	var h uint64
	for i, v := range out {
		if i > 0 && v < out[i-1] {
			return fmt.Errorf("sort: out of order at %d of %d", i, len(out))
		}
		h += elemHash(v)
	}
	if h != want {
		return fmt.Errorf("sort: output of %d elements is not a permutation of the input", len(out))
	}
	return nil
}

// checkMultiset verifies that out holds the multiset whose hash is want.
func checkMultiset(out []int32, want uint64) error {
	if multisetHash(out) != want {
		return fmt.Errorf("output of %d elements is not a permutation of the input", len(out))
	}
	return nil
}

// The analytics requests use one fixed predicate, key and monoid.

const (
	numBuckets = 64
	topK       = 64
)

func keep(v int32) bool  { return v&1 == 0 }
func bucket(v int32) int { return int(uint32(v) % numBuckets) }
func lift(a int64, v int32) int64 {
	return a + int64(v)
}
func comb(a, b int64) int64 { return a + b }

// aggWeights are the random weights of the aggregate check: per-bucket
// totals t_b are accepted when Σ_b w_b·t_b equals the set-up prefix of
// Σ w_key(v)·v, which a wrong total passes only by a 2^-64 chance.
func aggWeights(seed uint64) [numBuckets]uint64 {
	var w [numBuckets]uint64
	for b := range w {
		w[b] = mix64(seed ^ uint64(b+1)*0xd1b54a32d192ed03)
	}
	return w
}

func weightedTotal(w *[numBuckets]uint64, totals []int64) uint64 {
	var s uint64
	for b, t := range totals {
		s += w[b] * uint64(t)
	}
	return s
}

// checkFilter verifies a Filter output of n survivors against the expected
// survivor count and survivor multiset hash.
func checkFilter(out []int32, n, wantN int, wantHash uint64) error {
	if n != wantN {
		return fmt.Errorf("filter: %d survivors, want %d", n, wantN)
	}
	var h uint64
	for _, v := range out[:n] {
		if !keep(v) {
			return fmt.Errorf("filter: survivor %d fails the predicate", v)
		}
		h += elemHash(v)
	}
	if h != wantHash {
		return fmt.Errorf("filter: survivors are not the input's")
	}
	return nil
}

// checkGroupBy verifies that grouped is a permutation of the input (by
// hash) with every bucket b contiguous in grouped[starts[b]:starts[b+1]].
func checkGroupBy(grouped []int32, starts []int, wantHash uint64) error {
	if len(starts) != numBuckets+1 || starts[0] != 0 || starts[numBuckets] != len(grouped) {
		return fmt.Errorf("groupby: bad bucket offsets")
	}
	var h uint64
	for b := 0; b < numBuckets; b++ {
		if starts[b+1] < starts[b] {
			return fmt.Errorf("groupby: offsets decrease at bucket %d", b)
		}
		for _, v := range grouped[starts[b]:starts[b+1]] {
			if bucket(v) != b {
				return fmt.Errorf("groupby: %d in bucket %d", v, b)
			}
			h += elemHash(v)
		}
	}
	if h != wantHash {
		return fmt.Errorf("groupby: output is not a permutation of the input")
	}
	return nil
}

func checkAggregate(totals []int64, w *[numBuckets]uint64, want uint64) error {
	if len(totals) != numBuckets {
		return fmt.Errorf("aggregate: %d buckets, want %d", len(totals), numBuckets)
	}
	if weightedTotal(w, totals) != want {
		return fmt.Errorf("aggregate: bucket totals differ from the input's")
	}
	return nil
}

// checkTopK verifies that out is the min(k, m) largest of the m elements of
// src accepted by sel (nil accepts all), in descending order. One pass over
// src counts the elements above out's smallest value t and hashes them; out
// must hold exactly those plus copies of t.
func checkTopK(src, out []int32, k int, sel func(int32) bool) error {
	m := 0
	for _, v := range src {
		if sel == nil || sel(v) {
			m++
		}
	}
	want := min(k, m)
	if len(out) != want {
		return fmt.Errorf("topk: %d selected, want %d", len(out), want)
	}
	if want == 0 {
		return nil
	}
	for i := 1; i < len(out); i++ {
		if out[i] > out[i-1] {
			return fmt.Errorf("topk: not descending at %d", i)
		}
	}
	t := out[len(out)-1]
	above, atT := 0, 0
	var hAbove uint64
	for _, v := range src {
		if sel != nil && !sel(v) {
			continue
		}
		switch {
		case v > t:
			above++
			hAbove += elemHash(v)
		case v == t:
			atT++
		}
	}
	var hOut uint64
	outAbove := 0
	for _, v := range out {
		if v > t {
			outAbove++
			hOut += elemHash(v)
		}
	}
	if outAbove != above || hOut != hAbove || len(out)-above > atT {
		return fmt.Errorf("topk: selection differs from the input's %d largest", want)
	}
	return nil
}

// checkJoin verifies n join runs of the ascending slices a and b: keys
// strictly ascending, each run a maximal key range on both sides, and
// exactly want runs — the number of distinct keys a and b share, computed
// at set-up. Valid distinct runs of the right count are exactly the shared
// keys.
func checkJoin(a, b []int32, runs []query.JoinRun[int32], n, want int) error {
	if n != want {
		return fmt.Errorf("join: %d runs, want %d", n, want)
	}
	for i, r := range runs[:n] {
		if i > 0 && r.Key <= runs[i-1].Key {
			return fmt.Errorf("join: run keys not ascending at %d", i)
		}
		if !maximalRun(a, r.ALo, r.AHi, r.Key) || !maximalRun(b, r.BLo, r.BHi, r.Key) {
			return fmt.Errorf("join: run %d (key %d) is not a maximal key range", i, r.Key)
		}
	}
	return nil
}

// maximalRun reports whether vs[lo:hi] is non-empty, holds only key, and
// cannot be extended. On a sorted slice checking the ends suffices.
func maximalRun(vs []int32, lo, hi int, key int32) bool {
	return 0 <= lo && lo < hi && hi <= len(vs) &&
		vs[lo] == key && vs[hi-1] == key &&
		(lo == 0 || vs[lo-1] != key) && (hi == len(vs) || vs[hi] != key)
}

// sharedKeyCounts returns c with c[n] = the number of distinct keys that
// both a[:n] and b[:n] hold. A key is shared by the prefixes of length n
// once n passes its first index on both sides.
func sharedKeyCounts(a, b []int32) []int {
	firstA := firstIndex(a)
	c := make([]int, len(a)+1)
	for k, ib := range firstIndex(b) {
		if ia, ok := firstA[k]; ok {
			c[max(ia, ib)+1]++
		}
	}
	for n := 1; n < len(c); n++ {
		c[n] += c[n-1]
	}
	return c
}

func firstIndex(vs []int32) map[int32]int {
	f := make(map[int32]int)
	for i, v := range vs {
		if _, ok := f[v]; !ok {
			f[v] = i
		}
	}
	return f
}
