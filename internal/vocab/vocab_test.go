package vocab

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestVocabularyAddLookup(t *testing.T) {
	v := New()
	a := v.Add("sushi")
	b := v.Add("noodles")
	if a == b {
		t.Fatal("distinct terms must get distinct ids")
	}
	if got := v.Add("sushi"); got != a {
		t.Errorf("re-adding returned %d, want %d", got, a)
	}
	if id, ok := v.Lookup("noodles"); !ok || id != b {
		t.Errorf("Lookup(noodles) = (%d,%v)", id, ok)
	}
	if _, ok := v.Lookup("seafood"); ok {
		t.Error("Lookup of unknown term should report false")
	}
	if v.Size() != 2 {
		t.Errorf("Size = %d, want 2", v.Size())
	}
	if v.Term(a) != "sushi" || v.Term(b) != "noodles" {
		t.Error("Term round-trip failed")
	}
}

func TestVocabularyDenseIDs(t *testing.T) {
	v := New()
	for i := 0; i < 100; i++ {
		id := v.Add(string(rune('a' + i)))
		if int(id) != i {
			t.Fatalf("id %d for term %d, want dense assignment", id, i)
		}
	}
}

func TestVocabularyTermPanics(t *testing.T) {
	v := New()
	defer func() {
		if recover() == nil {
			t.Error("Term on unknown id should panic")
		}
	}()
	v.Term(5)
}

func TestDocBasics(t *testing.T) {
	d := NewDoc(map[TermID]int32{3: 2, 1: 1, 7: 5})
	if d.Unique() != 3 {
		t.Errorf("Unique = %d, want 3", d.Unique())
	}
	if d.Len() != 8 {
		t.Errorf("Len = %d, want 8", d.Len())
	}
	if d.Freq(3) != 2 || d.Freq(1) != 1 || d.Freq(7) != 5 {
		t.Error("Freq wrong")
	}
	if d.Freq(2) != 0 || d.Has(2) {
		t.Error("absent term should have freq 0")
	}
	terms := d.Terms()
	for i := 1; i < len(terms); i++ {
		if terms[i-1] >= terms[i] {
			t.Errorf("terms not sorted: %v", terms)
		}
	}
}

func TestNewDocDropsNonPositive(t *testing.T) {
	d := NewDoc(map[TermID]int32{1: 0, 2: -3, 3: 1})
	if d.Unique() != 1 || !d.Has(3) {
		t.Errorf("non-positive freqs should be dropped: %v", d.Terms())
	}
}

func TestDocFromTerms(t *testing.T) {
	d := DocFromTerms([]TermID{5, 2, 5, 5})
	if d.Freq(5) != 3 || d.Freq(2) != 1 {
		t.Errorf("DocFromTerms freqs wrong: f(5)=%d f(2)=%d", d.Freq(5), d.Freq(2))
	}
	if d.Len() != 4 {
		t.Errorf("Len = %d, want 4", d.Len())
	}
}

func TestDocEmpty(t *testing.T) {
	var d Doc
	if !d.IsEmpty() || d.Len() != 0 || d.Unique() != 0 {
		t.Error("zero Doc should be empty")
	}
}

func TestMergeTerms(t *testing.T) {
	d := NewDoc(map[TermID]int32{1: 4})
	m := d.MergeTerms([]TermID{1, 2, 3})
	if m.Freq(1) != 4 {
		t.Errorf("existing term freq changed: %d", m.Freq(1))
	}
	if m.Freq(2) != 1 || m.Freq(3) != 1 {
		t.Error("added terms should have freq 1")
	}
	if d.Unique() != 1 {
		t.Error("MergeTerms must not mutate the receiver")
	}
}

func TestDocEqual(t *testing.T) {
	a := NewDoc(map[TermID]int32{1: 2, 2: 3})
	b := NewDoc(map[TermID]int32{2: 3, 1: 2})
	c := NewDoc(map[TermID]int32{1: 2, 2: 4})
	if !a.Equal(b) {
		t.Error("equal docs reported unequal")
	}
	if a.Equal(c) {
		t.Error("different freqs reported equal")
	}
}

// TestMapFreeDocsMatchNewDoc: DocFromTerms and MergeTerms build exactly
// the Doc the term-frequency map gave them — reflect.DeepEqual, so an
// empty Doc's slices are non-nil as NewDoc's are — over random term lists
// with duplicates, negative (unknown) terms and empty ones.
func TestMapFreeDocsMatchNewDoc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randomTerms := func() []TermID {
		out := make([]TermID, rng.Intn(12))
		for i := range out {
			out[i] = TermID(rng.Intn(20) - 3)
		}
		return out
	}
	for trial := 0; trial < 500; trial++ {
		terms := randomTerms()
		if trial == 0 {
			terms = nil
		}
		tf := map[TermID]int32{}
		for _, tm := range terms {
			tf[tm]++
		}
		d := DocFromTerms(terms)
		if want := NewDoc(tf); !reflect.DeepEqual(d, want) {
			t.Fatalf("DocFromTerms(%v) = %+v, want %+v", terms, d, want)
		}
		add := randomTerms()
		for _, tm := range add {
			if _, ok := tf[tm]; !ok {
				tf[tm] = 1
			}
		}
		if got, want := d.MergeTerms(add), NewDoc(tf); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v.MergeTerms(%v) = %+v, want %+v", d, add, got, want)
		}
	}
}
