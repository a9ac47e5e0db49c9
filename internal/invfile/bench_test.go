package invfile

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vocab"
)

// benchShapes are the min-max posting files a cold three-keyword read
// meets on topk-ingest's index (20,000 generated objects, fanout 32, a
// 3,333-term vocabulary): the root's, which never fits a decoded-cache
// shard and is summed off its bytes on every read, a typical level-1
// node's and a typical leaf's. aggTerms is the size of the aggregate a
// mutation splices into such a file: a level-1 child's for the root, a
// leaf's for level 1, one object's for a leaf.
var benchShapes = []struct {
	name                     string
	entries, terms, postings int
	aggTerms                 int
}{
	{"root", 20, 3252, 22477, 1500},
	{"level1", 32, 1500, 3400, 107},
	{"leaf", 32, 107, 220, 5},
}

// benchFile builds a synthetic file of the given shape: distinct term ids
// drawn from a 3,333-term vocabulary, each term with at least one posting
// and the remaining postings spread at random, on distinct entries.
func benchFile(entries, terms, postings int) *File {
	rng := rand.New(rand.NewSource(1))
	ids := rng.Perm(3333)[:terms]
	slices.Sort(ids)
	counts := make([]int, terms)
	for i := range counts {
		counts[i] = 1
	}
	for extra := postings - terms; extra > 0; {
		if i := rng.Intn(terms); counts[i] < entries {
			counts[i]++
			extra--
		}
	}
	f := New()
	for i, id := range ids {
		es := rng.Perm(entries)[:counts[i]]
		slices.Sort(es)
		for _, e := range es {
			f.Add(vocab.TermID(id), Posting{Entry: int32(e), MaxW: rng.Float64(), MinW: rng.Float64() / 2})
		}
	}
	return f
}

// BenchmarkDecodeSumsInto is the cold read of one node: the bound sums of
// three query terms (the first, middle and last stored) straight off the
// encoded file, as Tree.TopK asks for them, and of sixteen terms spread
// over a level-1 node's, as a cohort's super-user asks for them.
func BenchmarkDecodeSumsInto(b *testing.B) { benchSums(b, false) }

// BenchmarkDirSumsInto is the same read on a decoded-cache hit, through
// the record's Dir.
func BenchmarkDirSumsInto(b *testing.B) { benchSums(b, true) }

// benchSums times one sum path, through a Dir or not, on every shape with
// three wanted terms and on level 1's with sixteen. Each sum starts at a
// nonzero floor, as under the Language Model.
func benchSums(b *testing.B, throughDir bool) {
	type sumShape struct {
		name                     string
		entries, terms, postings int
		wanted                   int
	}
	var shapes []sumShape
	for _, s := range benchShapes {
		shapes = append(shapes, sumShape{s.name, s.entries, s.terms, s.postings, 3})
	}
	shapes = append(shapes, sumShape{"level1-16terms", 32, 1500, 3400, 16})
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			f := benchFile(s.entries, s.terms, s.postings)
			buf := f.Encode(true, 32)
			terms := f.Terms()
			var query []vocab.TermID
			for i := range s.wanted {
				query = append(query, terms[i*(len(terms)-1)/(s.wanted-1)])
			}
			start := 0.01 * float64(s.wanted)
			var scratch SumScratch
			read := func() error {
				_, _, err := DecodeSumsInto(buf, s.entries, query, nil, start, 0, &scratch)
				return err
			}
			if throughDir {
				dir, err := OpenDir(buf)
				if err != nil {
					b.Fatal(err)
				}
				read = func() error {
					_, _, err := dir.SumsInto(s.entries, query, nil, start, 0, &scratch)
					return err
				}
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				if err := read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpenDir is what a cacheable record's first read pays on top of
// its sums: one walk of the directory into a Dir.
func BenchmarkOpenDir(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			buf := benchFile(s.entries, s.terms, s.postings).Encode(true, 32)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := OpenDir(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchAggregate draws an aggregate of n distinct terms from the same
// 3,333-term vocabulary as benchFile.
func benchAggregate(n int) []EntryWeight {
	rng := rand.New(rand.NewSource(2))
	ids := rng.Perm(3333)[:n]
	slices.Sort(ids)
	agg := make([]EntryWeight, n)
	for i, id := range ids {
		agg[i] = EntryWeight{Term: vocab.TermID(id), MaxW: rng.Float64(), MinW: rng.Float64() / 2}
	}
	return agg
}

// BenchmarkReplaceEntry is a mutation's edit of one file on its path:
// the postings of a middle entry replaced by a child's new aggregate,
// spliced into the encoded record.
func BenchmarkReplaceEntry(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			buf := benchFile(s.entries, s.terms, s.postings).Encode(true, 32)
			agg := benchAggregate(s.aggTerms)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ReplaceEntry(buf, int32(s.entries/2), agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregate is a mutation's read of a rewritten child: the
// aggregate its parent stores for it, off the encoded record.
func BenchmarkAggregate(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			buf := benchFile(s.entries, s.terms, s.postings).Encode(true, 32)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Aggregate(buf, s.entries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
