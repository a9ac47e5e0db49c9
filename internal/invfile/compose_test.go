package invfile

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vocab"
)

// referenceCompose is the record the reference encoder writes for the
// entry lists of a node: every list's weights Added as postings of its
// entry, sorted, then encoded (File.referenceEncode).
func referenceCompose(lists [][]EntryWeight, includeMin bool, fanout int) []byte {
	f := New()
	for e, list := range lists {
		for _, w := range list {
			f.Add(w.Term, Posting{Entry: int32(e), MaxW: w.MaxW, MinW: w.MinW})
		}
	}
	return f.referenceEncode(layoutFor(includeMin, fanout))
}

// composeWith is the record c writes for lists.
func composeWith(c *Composer, lists [][]EntryWeight, includeMin bool, fanout int) []byte {
	for _, l := range lists {
		for _, w := range l {
			c.Add(w)
		}
		c.EndEntry()
	}
	return c.Compose(includeMin, fanout)
}

// randomLists draws the entry lists of a node of n entries over universe
// terms spaced scale apart, each list strictly ascending: overlapping at
// random, pairwise disjoint, all empty, or with every other list empty.
func randomLists(rng *rand.Rand, n, universe, scale int) [][]EntryWeight {
	lists := make([][]EntryWeight, n)
	shape := rng.Intn(4)
	for e := range lists {
		if shape == 2 || shape == 3 && e%2 == 1 {
			continue
		}
		for tm := 0; tm < universe; tm++ {
			keep := rng.Intn(3) == 0
			if shape == 1 {
				keep = tm%n == e && rng.Intn(2) == 0
			}
			if keep {
				w := EntryWeight{Term: vocab.TermID(tm * scale), MaxW: rng.Float64() * 4}
				if rng.Intn(3) > 0 {
					w.MinW = rng.Float64() * w.MaxW
				}
				lists[e] = append(lists[e], w)
			}
		}
	}
	return lists
}

// TestComposeMatchesReference: on random term-ascending entry lists — with
// and without minimum weights, at fanouts of every delta width (1 byte up
// to 256, 2 up to 65,536, 4 beyond), overlapping, disjoint and empty —
// the Composer writes exactly the reference encoder's bytes, with one
// Composer reused from record to record.
func TestComposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var c Composer
	for round := 0; round < 900; round++ {
		var fanout, entries int
		switch round % 3 {
		case 0:
			fanout = 4 + rng.Intn(253)
			entries = 1 + rng.Intn(fanout)
		case 1:
			fanout = 257 + rng.Intn(1<<16-256)
			entries = 1 + rng.Intn(300)
		default:
			fanout = 1<<16 + 1 + rng.Intn(1<<20)
			entries = 1 + rng.Intn(40)
		}
		scale := 1
		if round%10 == 0 {
			scale = 100 + rng.Intn(1000) // term ids of two and three bytes
		}
		lists := randomLists(rng, entries, 1+rng.Intn(60), scale)
		includeMin := round%2 == 0
		got, want := composeWith(&c, lists, includeMin, fanout), referenceCompose(lists, includeMin, fanout)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d (fanout %d, %d entries, min %v): composed\n %x\nwant\n %x", round, fanout, entries, includeMin, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("round %d: a %d-byte record in a buffer of %d", round, len(got), cap(got))
		}
	}
}

// TestComposeEmpty: a node without entries, or whose entries list nothing,
// has a record of no terms.
func TestComposeEmpty(t *testing.T) {
	for _, lists := range [][][]EntryWeight{nil, {nil}, {nil, nil, nil}} {
		if got, want := composeWith(&Composer{}, lists, true, 32), referenceCompose(lists, true, 32); !bytes.Equal(got, want) {
			t.Fatalf("%d empty entries: %x, want %x", len(lists), got, want)
		}
	}
}

// TestComposerAllocatesTheRecordOnly: a Composer reused for a node of the
// same shape allocates only the record it returns.
func TestComposerAllocatesTheRecordOnly(t *testing.T) {
	lists := randomLists(rand.New(rand.NewSource(4)), 32, 200, 1)
	var c Composer
	composeWith(&c, lists, true, 32)
	if allocs := testing.AllocsPerRun(50, func() { composeWith(&c, lists, true, 32) }); allocs != 1 {
		t.Fatalf("a warm Composer allocates %v times per record, want 1", allocs)
	}
}

// TestComposeRejectsBadLists: an entry whose terms do not strictly ascend,
// a negative term and an entry past the fanout's delta range are the
// caller's errors, and panic rather than encode a record no reader
// accepts.
func TestComposeRejectsBadLists(t *testing.T) {
	w := func(tm vocab.TermID) EntryWeight { return EntryWeight{Term: tm, MaxW: 1} }
	for name, c := range map[string]struct {
		lists  [][]EntryWeight
		fanout int
		panic  string
	}{
		"repeated term":   {[][]EntryWeight{{w(1)}, {w(2), w(2)}}, 8, "lists term 2 after term 2"},
		"descending term": {[][]EntryWeight{{w(5), w(3)}}, 8, "lists term 3 after term 5"},
		"negative term":   {[][]EntryWeight{nil, {w(-1)}}, 8, "negative term"},
		"entry past 255":  {append(make([][]EntryWeight, 256), []EntryWeight{w(0)}), 8, "does not fit"},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, c.panic) {
					t.Errorf("%s: panic %q, want one mentioning %q", name, r, c.panic)
				}
			}()
			composeWith(&Composer{}, c.lists, true, c.fanout)
		}()
	}
}

// FuzzCompose: on every input the Composer writes the reference encoder's
// bytes. The input spells the entry lists: byte 0xff ends an entry, any
// other advances the entry's term by 1 + b/4 and adds it with weights
// derived from b; fanout picks the delta width.
func FuzzCompose(f *testing.F) {
	f.Add([]byte{1, 2, 0xff, 0xff, 3, 0, 0xff, 7}, uint32(8), true)
	f.Add([]byte{0xfe, 0xfe, 0xff, 0, 0xff, 9, 9, 9}, uint32(300), false)
	f.Add([]byte{4, 0xff, 4, 0xff, 4}, uint32(1<<17), true)
	f.Add([]byte{}, uint32(0), true)
	f.Fuzz(func(t *testing.T, data []byte, fanout uint32, includeMin bool) {
		lists := [][]EntryWeight{nil}
		tm := vocab.TermID(-1)
		for _, b := range data {
			if b == 0xff {
				lists, tm = append(lists, nil), -1
				continue
			}
			tm += 1 + vocab.TermID(b/4)
			e := len(lists) - 1
			lists[e] = append(lists[e], EntryWeight{Term: tm, MaxW: float64(b) / 8, MinW: float64(b%4) / 16})
		}
		fan := max(int(fanout%(1<<18)), len(lists), 4)
		var c Composer
		if got, want := composeWith(&c, lists, includeMin, fan), referenceCompose(lists, includeMin, fan); !bytes.Equal(got, want) {
			t.Fatalf("fanout %d: composed %x, want %x", fan, got, want)
		}
	})
}
