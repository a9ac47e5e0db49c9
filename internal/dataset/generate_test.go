package dataset

import (
	"testing"
)

func TestGenerateFlickrShape(t *testing.T) {
	cfg := DefaultFlickrConfig(2000)
	ds := GenerateFlickr(cfg)
	if len(ds.Objects) != 2000 {
		t.Fatalf("objects = %d, want 2000", len(ds.Objects))
	}
	p := ds.Describe()
	// Short documents: average unique tags near the configured mean.
	if p.AvgUniquePerObj < 4 || p.AvgUniquePerObj > 10 {
		t.Errorf("avg unique tags = %v, want ≈6.9", p.AvgUniquePerObj)
	}
	for _, o := range ds.Objects[:50] {
		if o.Doc.IsEmpty() {
			t.Fatal("generated object with empty doc")
		}
	}
	if ds.Space.IsEmpty() {
		t.Error("empty data space")
	}
}

func TestGenerateFlickrDeterministic(t *testing.T) {
	a := GenerateFlickr(DefaultFlickrConfig(500))
	b := GenerateFlickr(DefaultFlickrConfig(500))
	for i := range a.Objects {
		if a.Objects[i].Loc != b.Objects[i].Loc || !a.Objects[i].Doc.Equal(b.Objects[i].Doc) {
			t.Fatalf("same seed produced different object %d", i)
		}
	}
	cfg := DefaultFlickrConfig(500)
	cfg.Seed = 99
	c := GenerateFlickr(cfg)
	same := true
	for i := range a.Objects {
		if a.Objects[i].Loc != c.Objects[i].Loc {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical locations")
	}
}

func TestGenerateFlickrZipfSkew(t *testing.T) {
	ds := GenerateFlickr(DefaultFlickrConfig(3000))
	// The most frequent term should dominate the median term heavily.
	var maxCF, nonzero int64
	for _, cf := range ds.Stats.CollectionFreq {
		if cf > maxCF {
			maxCF = cf
		}
		if cf > 0 {
			nonzero++
		}
	}
	mean := float64(ds.Stats.TotalTerms) / float64(nonzero)
	if float64(maxCF) < 5*mean {
		t.Errorf("tag distribution not skewed: max=%d mean=%.1f", maxCF, mean)
	}
}

func TestGenerateYelpShape(t *testing.T) {
	cfg := DefaultYelpConfig(300)
	ds := GenerateYelp(cfg)
	if len(ds.Objects) != 300 {
		t.Fatalf("objects = %d", len(ds.Objects))
	}
	p := ds.Describe()
	if p.AvgUniquePerObj < 40 {
		t.Errorf("Yelp-like docs should be long, avg unique = %v", p.AvgUniquePerObj)
	}
	// term frequencies should exceed 1 somewhere (reviews repeat words)
	foundMulti := false
	for _, o := range ds.Objects {
		if o.Doc.Len() > int64(o.Doc.Unique()) {
			foundMulti = true
			break
		}
	}
	if !foundMulti {
		t.Error("expected some term frequency > 1 in Yelp-like docs")
	}
}

func TestGenerateUsersProcedure(t *testing.T) {
	ds := GenerateFlickr(DefaultFlickrConfig(3000))
	cfg := UserConfig{NumUsers: 200, UL: 3, UW: 20, Area: 5, Seed: 11}
	us := GenerateUsers(ds, cfg)

	if len(us.Users) != 200 {
		t.Fatalf("users = %d, want 200", len(us.Users))
	}
	if len(us.Keywords) == 0 || len(us.Keywords) > 20 {
		t.Fatalf("pooled keywords = %d, want 1..20", len(us.Keywords))
	}
	kwSet := make(map[int32]bool)
	for _, k := range us.Keywords {
		kwSet[int32(k)] = true
	}
	for _, u := range us.Users {
		if u.Doc.Unique() == 0 || u.Doc.Unique() > cfg.UL {
			t.Fatalf("user %d has %d keywords, want 1..%d", u.ID, u.Doc.Unique(), cfg.UL)
		}
		for _, term := range u.Doc.Terms() {
			if !kwSet[int32(term)] {
				t.Fatalf("user keyword %d not from the UW pool", term)
			}
		}
		if !us.Region.Contains(u.Loc) {
			t.Fatalf("user location %v outside region %v", u.Loc, us.Region)
		}
	}
}

func TestGenerateUsersDistinctSeeds(t *testing.T) {
	ds := GenerateFlickr(DefaultFlickrConfig(2000))
	a := GenerateUsers(ds, UserConfig{NumUsers: 50, UL: 2, UW: 10, Area: 5, Seed: 1})
	b := GenerateUsers(ds, UserConfig{NumUsers: 50, UL: 2, UW: 10, Area: 5, Seed: 2})
	same := true
	for i := range a.Users {
		if a.Users[i].Loc != b.Users[i].Loc {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical user sets")
	}
}

func TestCandidateLocations(t *testing.T) {
	ds := GenerateFlickr(DefaultFlickrConfig(1000))
	us := GenerateUsers(ds, UserConfig{NumUsers: 1000, UL: 3, UW: 20, Area: 5, Seed: 7})
	locs := CandidateLocations(us.Region, 30, 1.0, 5)
	if len(locs) != 30 {
		t.Fatalf("locations = %d, want 30", len(locs))
	}
	expanded := us.Region
	expanded.Min.X -= 1
	expanded.Min.Y -= 1
	expanded.Max.X += 1
	expanded.Max.Y += 1
	for _, l := range locs {
		if !expanded.Contains(l) {
			t.Errorf("candidate %v outside expanded region", l)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	ds := GenerateFlickr(FlickrConfig{NumObjects: 2000, VocabSize: 300, MeanTags: 4, NumCluster: 4, Zipf: 1.3, Seed: 3})
	p := ds.Describe()
	if p.AvgUniquePerObj < 2.5 || p.AvgUniquePerObj > 5.5 {
		t.Errorf("avg tags %v, want ≈4", p.AvgUniquePerObj)
	}
}
