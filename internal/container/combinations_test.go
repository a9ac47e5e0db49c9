package container

import (
	"fmt"
	"testing"
)

func TestCombinationsEnumeratesAll(t *testing.T) {
	items := []int{1, 2, 3, 4}
	var got [][]int
	Combinations(items, 2, func(c []int) bool {
		cp := append([]int(nil), c...)
		got = append(got, cp)
		return true
	})
	want := [][]int{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}
	if len(got) != len(want) {
		t.Fatalf("got %d combos, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("combo %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCombinationsEdgeCases(t *testing.T) {
	count := 0
	Combinations([]int{1, 2}, 0, func(c []int) bool { count++; return true })
	if count != 1 {
		t.Errorf("k=0 should yield exactly the empty combo, got %d", count)
	}
	count = 0
	Combinations([]int{1, 2}, 3, func(c []int) bool { count++; return true })
	if count != 0 {
		t.Errorf("k>n should yield nothing, got %d", count)
	}
	count = 0
	Combinations([]int{1, 2, 3}, 3, func(c []int) bool { count++; return true })
	if count != 1 {
		t.Errorf("k=n should yield one combo, got %d", count)
	}
	count = 0
	Combinations([]int(nil), 1, func(c []int) bool { count++; return true })
	if count != 0 {
		t.Errorf("empty items should yield nothing, got %d", count)
	}
}

func TestCombinationsEarlyStop(t *testing.T) {
	count := 0
	Combinations([]int{1, 2, 3, 4, 5}, 2, func(c []int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop after 3, got %d", count)
	}
}

func TestCombinationsCountMatchesEnumeration(t *testing.T) {
	for n := 0; n <= 8; n++ {
		items := make([]int, n)
		want := int64(1) // C(n, 0); C(n, k+1) = C(n, k)·(n-k)/(k+1)
		for k := 0; k <= n; k++ {
			count := int64(0)
			Combinations(items, k, func([]int) bool { count++; return true })
			if count != want {
				t.Errorf("C(%d,%d): enumerated %d, formula %d", n, k, count, want)
			}
			want = want * int64(n-k) / int64(k+1)
		}
	}
}
