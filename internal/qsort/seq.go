package qsort

import "math/bits"

// Introsort sorts data with the introspective sort algorithm used by
// libstdc++'s std::sort: median-of-3 quicksort with a 2·⌊log2 n⌋ depth limit
// falling back to heapsort, leaving runs of at most sortThreshold elements
// for a final insertion-sort pass. It is the repository's stand-in for the
// paper's "best sequential implementation available (STL)" — the Seq/STL
// column of every table.
//
// Its partitioning step is HoarePartition's branchless block partition
// (BlockQuicksort), not libstdc++'s compare-and-branch scan, so on
// unpredictable keys this baseline is faster than the classic std::sort
// design; the tables' speed-up columns are measured against it.
func Introsort[T Ordered](data []T) {
	n := len(data)
	if n < 2 {
		return
	}
	introLoop(data, 2*(bits.Len(uint(n))-1))
	finalInsertionSort(data)
}

// sortThreshold matches the _S_threshold = 16 of libstdc++.
const sortThreshold = 16

func introLoop[T Ordered](data []T, depth int) {
	for len(data) > sortThreshold {
		if depth == 0 {
			heapSort(data)
			return
		}
		depth--
		s := HoarePartition(data)
		// Recurse into the smaller side, loop on the larger: O(log n) stack.
		if s < len(data)-s {
			introLoop(data[:s], depth)
			data = data[s:]
		} else {
			introLoop(data[s:], depth)
			data = data[:s]
		}
	}
}

// finalInsertionSort sorts an array whose elements are all within
// sortThreshold positions of their final place (the post-introLoop state).
func finalInsertionSort[T Ordered](data []T) {
	for i := 1; i < len(data); i++ {
		v := data[i]
		j := i - 1
		for j >= 0 && data[j] > v {
			data[j+1] = data[j]
			j--
		}
		data[j+1] = v
	}
}

// InsertionSort sorts data by straight insertion; used directly for tiny
// inputs and in tests as a trivially correct reference.
func InsertionSort[T Ordered](data []T) {
	finalInsertionSort(data)
}

// heapSort is the depth-limit fallback of Introsort.
func heapSort[T Ordered](data []T) {
	n := len(data)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(data, i, n)
	}
	for i := n - 1; i > 0; i-- {
		data[0], data[i] = data[i], data[0]
		siftDown(data, 0, i)
	}
}

func siftDown[T Ordered](data []T, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && data[child+1] > data[child] {
			child++
		}
		if data[root] >= data[child] {
			return
		}
		data[root], data[child] = data[child], data[root]
		root = child
	}
}

// SequentialQuicksort is the handwritten reference quicksort of the tables'
// SeqQS column: plain recursive quicksort "that uses the same cutoff to
// switch to STL sort as the parallel implementations".
func SequentialQuicksort[T Ordered](data []T) {
	SequentialQuicksortCutoff(data, DefaultCutoff)
}

// SequentialQuicksortCutoff is SequentialQuicksort with an explicit cutoff.
func SequentialQuicksortCutoff[T Ordered](data []T, cutoff int) {
	if cutoff < 2 {
		cutoff = 2
	}
	for len(data) > cutoff {
		s := HoarePartition(data)
		if s < len(data)-s {
			SequentialQuicksortCutoff(data[:s], cutoff)
			data = data[s:]
		} else {
			SequentialQuicksortCutoff(data[s:], cutoff)
			data = data[:s]
		}
	}
	Introsort(data)
}
