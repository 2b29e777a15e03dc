package qsort

import (
	"slices"
	"testing"

	"repro/internal/dist"
)

// FuzzPartition checks both partition kernels at the lengths that reach the
// blockLen chunk loop (wired into scripts/fuzz-smoke.sh). The seeds straddle
// multiples of blockLen and 2·DefaultBlockSize, with full-range and
// few-distinct keys; keys < 2 selects full-range keys, otherwise values are
// drawn from [0, keys).
func FuzzPartition(f *testing.F) {
	for _, n := range []int{2, 3, 17, blockLen - 1, blockLen, blockLen + 1,
		2*blockLen - 1, 2 * blockLen, 2*blockLen + 1, 3*blockLen + 5,
		2*DefaultBlockSize - 1, 2 * DefaultBlockSize, 2*DefaultBlockSize + 1} {
		for _, keys := range []uint8{0, 2, 3} {
			f.Add(uint16(n), keys, uint8(n), uint64(n)*7+uint64(keys))
		}
	}
	blocks := []int{16, blockLen, 200, DefaultBlockSize}
	f.Fuzz(func(t *testing.T, n uint16, keys, bsel uint8, seed uint64) {
		size := 2 + int(n)%(2*DefaultBlockSize+2*blockLen)
		rng := dist.NewRNG(seed)
		in := make([]int32, size)
		for i := range in {
			if keys < 2 {
				in[i] = int32(rng.Uint32())
			} else {
				in[i] = int32(rng.Intn(int(keys)))
			}
		}
		want := slices.Clone(in)
		slices.Sort(want)

		data := slices.Clone(in)
		s := HoarePartition(data)
		if s <= 0 || s >= size {
			t.Fatalf("n=%d: HoarePartition split %d not interior", size, s)
		}
		if maxL, minR := slices.Max(data[:s]), slices.Min(data[s:]); maxL > minR {
			t.Fatalf("n=%d: HoarePartition max(left)=%d > min(right)=%d at split %d", size, maxL, minR, s)
		}
		checkSameMultiset(t, "HoarePartition", data, want)

		B := blocks[int(bsel)%len(blocks)]
		data = slices.Clone(in)
		ps := newParState(data, 1, B)
		ps.phase1()
		ps.fanin.WaitZero()
		split := ps.cleanup()
		for i, v := range data {
			if i < split && v > ps.pv || i >= split && v < ps.pv {
				t.Fatalf("n=%d B=%d: team partition data[%d]=%d on the wrong side of pivot %d (split %d)",
					size, B, i, v, ps.pv, split)
			}
		}
		checkSameMultiset(t, "team partition", data, want)
	})
}

func checkSameMultiset(t *testing.T, name string, got, sorted []int32) {
	t.Helper()
	got = slices.Clone(got)
	slices.Sort(got)
	if !slices.Equal(got, sorted) {
		t.Fatalf("%s changed the multiset of its input", name)
	}
}
