package dataset

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/vocab"
)

func TestObjectsRoundTrip(t *testing.T) {
	ds := GenerateFlickr(DefaultFlickrConfig(300))
	var buf bytes.Buffer
	if err := WriteObjects(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadObjects(&buf, vocab.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Objects) != len(ds.Objects) {
		t.Fatalf("round trip lost objects: %d vs %d", len(back.Objects), len(ds.Objects))
	}
	for i, o := range ds.Objects {
		b := back.Objects[i]
		if o.Loc.Dist(b.Loc) > 1e-5 {
			t.Fatalf("object %d location drift: %v vs %v", i, o.Loc, b.Loc)
		}
		if o.Doc.Unique() != b.Doc.Unique() || o.Doc.Len() != b.Doc.Len() {
			t.Fatalf("object %d doc shape changed", i)
		}
	}
	// corpus stats equivalent (modulo term-id permutation)
	if back.Stats.TotalTerms != ds.Stats.TotalTerms || back.Stats.NumDocs != ds.Stats.NumDocs {
		t.Error("corpus stats drift")
	}
}

func TestUsersRoundTripSharedVocab(t *testing.T) {
	ds := GenerateFlickr(DefaultFlickrConfig(300))
	us := GenerateUsers(ds, UserConfig{NumUsers: 40, UL: 3, UW: 10, Area: 10, Seed: 3})
	var buf bytes.Buffer
	if err := WriteUsers(&buf, ds.Vocab, us.Users); err != nil {
		t.Fatal(err)
	}
	// read back through the same vocabulary: term ids must match exactly
	back, err := ReadUsers(&buf, ds.Vocab)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(us.Users) {
		t.Fatalf("users lost: %d vs %d", len(back), len(us.Users))
	}
	for i := range back {
		if !back[i].Doc.Equal(us.Users[i].Doc) {
			t.Fatalf("user %d doc changed through round trip", i)
		}
	}
}

func TestCandidatesRoundTrip(t *testing.T) {
	v := vocab.New()
	a, b := v.Add("alpha"), v.Add("beta")
	locs := []geo.Point{{X: 1.5, Y: 2.5}, {X: -3, Y: 4}}
	var buf bytes.Buffer
	if err := WriteCandidates(&buf, v, locs, []vocab.TermID{a, b}); err != nil {
		t.Fatal(err)
	}
	gotLocs, gotKws, err := ReadCandidates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotLocs) != 2 || gotLocs[0].Dist(locs[0]) > 1e-5 {
		t.Fatalf("locations = %v", gotLocs)
	}
	if len(gotKws) != 2 || gotKws[0] != "alpha" || gotKws[1] != "beta" {
		t.Fatalf("keywords = %v", gotKws)
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	input := "# header\n\n0\t1.0\t2.0\tfoo,bar\n# tail\n"
	ds, err := ReadObjects(strings.NewReader(input), vocab.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Objects) != 1 || ds.Objects[0].Doc.Unique() != 2 {
		t.Fatalf("parsed %+v", ds.Objects)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields": "0\t1.0\t2.0\n",
		"bad x":          "0\tnope\t2.0\tfoo\n",
		"bad y":          "0\t1.0\tnope\tfoo\n",
		"NaN x":          "0\tNaN\t2.0\tfoo\n",
		"Inf y":          "0\t1.0\t-Inf\tfoo\n",
		"1e300 x":        "0\t1e300\t2.0\tfoo\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadObjects(strings.NewReader(input), vocab.New()); err == nil {
				t.Error("want parse error")
			}
			if _, err := ReadUsers(strings.NewReader(input), vocab.New()); err == nil && name == "too few fields" {
				t.Error("want parse error for users too")
			}
		})
	}
	if _, _, err := ReadCandidates(strings.NewReader("bogus\t1\t2\n")); err == nil {
		t.Error("unknown candidate record should error")
	}
	if _, _, err := ReadCandidates(strings.NewReader("loc\t1\n")); err == nil {
		t.Error("short loc record should error")
	}
	if _, _, err := ReadCandidates(strings.NewReader("loc\tInf\t1\n")); err == nil {
		t.Error("an infinite candidate location should error")
	}
}

func TestParseDocEdgeCases(t *testing.T) {
	v := vocab.New()
	d := parseDoc(v, "")
	if !d.IsEmpty() {
		t.Error("empty field should give empty doc")
	}
	d = parseDoc(v, "a, ,b,,a")
	if d.Unique() != 2 || d.Freq(v.MustLookup("a")) != 2 {
		t.Errorf("parsed doc = unique %d", d.Unique())
	}
}
