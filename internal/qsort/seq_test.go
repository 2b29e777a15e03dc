package qsort

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

// testInputs returns a varied set of adversarial and typical inputs.
func testInputs() map[string][]int32 {
	ins := map[string][]int32{
		"empty":     {},
		"single":    {42},
		"pair":      {2, 1},
		"pairEq":    {7, 7},
		"allEqual":  make([]int32, 1000),
		"sorted":    make([]int32, 1000),
		"reverse":   make([]int32, 1000),
		"sawtooth":  make([]int32, 1000),
		"twoVals":   make([]int32, 1000),
		"organPipe": make([]int32, 1000),
	}
	for i := 0; i < 1000; i++ {
		ins["allEqual"][i] = 5
		ins["sorted"][i] = int32(i)
		ins["reverse"][i] = int32(1000 - i)
		ins["sawtooth"][i] = int32(i % 13)
		ins["twoVals"][i] = int32(i % 2)
		if i < 500 {
			ins["organPipe"][i] = int32(i)
		} else {
			ins["organPipe"][i] = int32(1000 - i)
		}
	}
	for _, k := range dist.Kinds {
		ins["dist-"+k.String()] = dist.Generate(k, 20000, 7)
	}
	return ins
}

func checkSorted(t *testing.T, name string, got, orig []int32) {
	t.Helper()
	if !IsSorted(got) {
		t.Fatalf("%s: output not sorted", name)
	}
	want := append([]int32(nil), orig...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d (multiset changed)", name, i, got[i], want[i])
		}
	}
}

func TestIntrosort(t *testing.T) {
	for name, in := range testInputs() {
		data := append([]int32(nil), in...)
		Introsort(data)
		checkSorted(t, name, data, in)
	}
}

func TestSequentialQuicksort(t *testing.T) {
	for name, in := range testInputs() {
		data := append([]int32(nil), in...)
		SequentialQuicksort(data)
		checkSorted(t, name, data, in)
	}
}

func TestSequentialQuicksortSmallCutoff(t *testing.T) {
	in := dist.Generate(dist.Random, 5000, 3)
	data := append([]int32(nil), in...)
	SequentialQuicksortCutoff(data, 2)
	checkSorted(t, "cutoff2", data, in)
}

func TestInsertionSort(t *testing.T) {
	in := dist.Generate(dist.Random, 500, 9)
	data := append([]int32(nil), in...)
	InsertionSort(data)
	checkSorted(t, "insertion", data, in)
}

func TestHeapSortViaDepthLimit(t *testing.T) {
	// A killer-adversary-ish input: median-of-3 quicksort degrades on
	// organ-pipe-of-organ-pipes; here just verify heapSort directly.
	in := dist.Generate(dist.Random, 3000, 5)
	data := append([]int32(nil), in...)
	heapSort(data)
	checkSorted(t, "heap", data, in)
}

func TestIntrosortStrings(t *testing.T) {
	data := []string{"pear", "apple", "fig", "banana", "apple", ""}
	Introsort(data)
	if !IsSorted(data) {
		t.Fatalf("strings not sorted: %v", data)
	}
}

func TestIntrosortQuick(t *testing.T) {
	f := func(in []int32) bool {
		data := append([]int32(nil), in...)
		Introsort(data)
		if !IsSorted(data) {
			return false
		}
		want := append([]int32(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if data[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHoarePartitionContract(t *testing.T) {
	f := func(in []int32) bool {
		if len(in) < 2 {
			return true
		}
		data := append([]int32(nil), in...)
		s := HoarePartition(data)
		if s <= 0 || s >= len(data) {
			return false // strict progress bounds
		}
		var maxL, minR int32 = data[0], data[s]
		for _, v := range data[:s] {
			if v > maxL {
				maxL = v
			}
		}
		for _, v := range data[s:] {
			if v < minR {
				minR = v
			}
		}
		return maxL <= minR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestHoarePartitionAllEqual pins Hoare's equal-key rule, on which the
// O(n log n) bound for constant inputs rests: the split is interior and
// balanced, on the scalar path and on the block path.
func TestHoarePartitionAllEqual(t *testing.T) {
	for _, n := range []int{3, 100, 2*blockLen + 1, 10000} {
		data := make([]int32, n)
		s := HoarePartition(data)
		if s < n/4 || s > n-n/4 || s <= 0 || s >= n {
			t.Fatalf("all-equal split of %d = %d, want interior and balanced", n, s)
		}
	}
}

func TestPartitionByValueContract(t *testing.T) {
	f := func(in []int32, pv int32) bool {
		data := append([]int32(nil), in...)
		s := PartitionByValue(data, pv)
		if s < 0 || s > len(data) {
			return false
		}
		for _, v := range data[:s] {
			if v > pv {
				return false
			}
		}
		for _, v := range data[s:] {
			if v < pv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNeutralize(t *testing.T) {
	// Left block of large values, right block of small: full swap.
	data := []int32{9, 9, 9, 9, 1, 1, 1, 1}
	l := &blockScan{lo: 0, hi: 4, pos: 0}
	r := &blockScan{lo: 4, hi: 8, pos: 4}
	neutralize(data, 5, l, r)
	if !l.exhausted() || !r.exhausted() {
		t.Fatalf("both blocks should neutralize: l=%+v r=%+v", l, r)
	}
	for i := 0; i < 4; i++ {
		if data[i] > 5 {
			t.Fatalf("left element %d = %d > pivot", i, data[i])
		}
		if data[4+i] < 5 {
			t.Fatalf("right element %d = %d < pivot", i, data[4+i])
		}
	}
}

// TestNeutralizeMultiChunk runs neutralize on blocks several blockLen
// chunks long, where the scan that is not exhausted stops mid-block: its
// [lo, pos) prefix must already be on the right side of the pivot.
func TestNeutralizeMultiChunk(t *testing.T) {
	const n = 3*blockLen + 17
	for seed := uint64(1); seed <= 50; seed++ {
		data := dist.Generate(dist.Random, 2*n, seed)
		pv := data[seed%(2*n)]
		l := &blockScan{lo: 0, hi: n, pos: 0}
		r := &blockScan{lo: n, hi: 2 * n, pos: n}
		neutralize(data, pv, l, r)
		if !l.exhausted() && !r.exhausted() {
			t.Fatalf("seed %d: neither block neutralized: l=%+v r=%+v", seed, l, r)
		}
		for i := l.lo; i < l.pos; i++ {
			if data[i] > pv {
				t.Fatalf("seed %d: left data[%d]=%d > pivot %d below pos %d", seed, i, data[i], pv, l.pos)
			}
		}
		for i := r.lo; i < r.pos; i++ {
			if data[i] < pv {
				t.Fatalf("seed %d: right data[%d]=%d < pivot %d below pos %d", seed, i, data[i], pv, r.pos)
			}
		}
	}
}

func TestMed3(t *testing.T) {
	cases := [][4]int{
		{1, 2, 3, 2}, {3, 2, 1, 2}, {2, 1, 3, 2}, {2, 3, 1, 2},
		{1, 1, 2, 1}, {2, 2, 1, 2}, {1, 2, 1, 1}, {5, 5, 5, 5},
	}
	for _, c := range cases {
		if got := med3(c[0], c[1], c[2]); got != c[3] {
			t.Fatalf("med3(%d,%d,%d) = %d, want %d", c[0], c[1], c[2], got, c[3])
		}
	}
}

func TestBestNp(t *testing.T) {
	B, mb := DefaultBlockSize, DefaultMinBlocksPerThread
	per := B * mb // elements required per thread
	cases := []struct {
		n, maxTeam, want int
	}{
		{per - 1, 64, 1},
		{2 * per, 64, 2},
		{4*per - 1, 64, 2},
		{4 * per, 64, 4},
		{64 * per, 64, 64},
		{1 << 30, 8, 8}, // capped by team size
		{100, 64, 1},    // tiny input
		{2 * per, 1, 1}, // single-thread scheduler
	}
	for _, c := range cases {
		if got := BestNp(c.n, B, mb, c.maxTeam); got != c.want {
			t.Fatalf("BestNp(%d, maxTeam=%d) = %d, want %d", c.n, c.maxTeam, got, c.want)
		}
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]int32{}) || !IsSorted([]int32{1}) || !IsSorted([]int32{1, 1, 2}) {
		t.Fatal("IsSorted false negative")
	}
	if IsSorted([]int32{2, 1}) {
		t.Fatal("IsSorted false positive")
	}
}
