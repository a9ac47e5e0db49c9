package container

// Combinations enumerates all size-k subsets of items, calling fn with each
// subset. The slice passed to fn is reused between calls; fn must copy it to
// retain it. Enumeration stops early if fn returns false. This drives the
// exhaustive keyword-combination scans of the baseline (Section 4) and the
// exact keyword selection (Algorithm 4).
func Combinations[T any](items []T, k int, fn func(combo []T) bool) {
	if k < 0 || k > len(items) {
		return
	}
	if k == 0 {
		fn(nil)
		return
	}
	combo := make([]T, k)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		for i, j := range idx {
			combo[i] = items[j]
		}
		if !fn(combo) {
			return
		}
		// advance the rightmost index that can still move
		i := k - 1
		for i >= 0 && idx[i] == len(items)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
