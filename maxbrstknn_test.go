package maxbrstknn

import "testing"

// paperExample reconstructs Figure 1 / Example 2 of the paper: four users,
// two restaurants, three candidate locations, menu keywords {sushi,
// seafood, noodles}, ws=1, k=1. The optimal answer is location l1 with
// menu item "sushi", reaching users u1, u2, u3.
func paperExample(t testing.TB) (*Index, Request) {
	t.Helper()
	b := NewBuilder()
	// existing restaurants: o1 (sushi) near the sushi fans, o2 (noodles)
	// near the noodle fan
	b.AddObject(2.0, 6.0, "sushi")
	b.AddObject(9.0, 2.0, "noodles")
	idx, err := b.Build(Options{Measure: KeywordOverlap})
	if err != nil {
		t.Fatal(err)
	}
	users := []UserSpec{
		{X: 4.0, Y: 8.5, Keywords: []string{"sushi", "seafood"}}, // u1
		{X: 5.0, Y: 7.5, Keywords: []string{"sushi"}},            // u2
		{X: 5.0, Y: 6.0, Keywords: []string{"sushi", "noodles"}}, // u3
		{X: 8.5, Y: 2.5, Keywords: []string{"noodles"}},          // u4
	}
	req := Request{
		Users: users,
		// l1 sits amid u1-u3; l2 and l3 are far from everyone
		Locations:   [][2]float64{{4.5, 7.5}, {0.5, 0.5}, {9.5, 9.5}},
		Keywords:    []string{"sushi", "seafood", "noodles"},
		MaxKeywords: 1,
		K:           1,
	}
	return idx, req
}

func TestPaperExample(t *testing.T) {
	idx, req := paperExample(t)
	for _, strat := range []Strategy{Exact, Approx, Exhaustive, UserIndexed} {
		req.Strategy = strat
		res, err := idx.MaxBRSTkNN(req)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.LocationIndex != 0 {
			t.Errorf("%v: location %d, want l1 (index 0)", strat, res.LocationIndex)
		}
		if len(res.Keywords) != 1 || res.Keywords[0] != "sushi" {
			t.Errorf("%v: keywords %v, want [sushi]", strat, res.Keywords)
		}
		if res.Count() != 3 {
			t.Errorf("%v: reached %d users, want 3 (%v)", strat, res.Count(), res.UserIDs)
		}
		for _, uid := range res.UserIDs {
			if uid == 3 {
				t.Errorf("%v: u4 should not be reachable", strat)
			}
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder().Build(Options{}); err == nil {
		t.Error("empty builder should fail to build")
	}
	b := NewBuilder()
	if id := b.AddObject(1, 2, "a"); id != 0 {
		t.Errorf("first id = %d", id)
	}
	if id := b.AddObject(3, 4, "b", "b", "c"); id != 1 {
		t.Errorf("second id = %d", id)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestTopKFacade(t *testing.T) {
	b := NewBuilder()
	b.AddObject(0, 0, "coffee")
	b.AddObject(1, 0, "coffee", "cake")
	b.AddObject(10, 10, "tea")
	idx, err := b.Build(Options{Measure: KeywordOverlap})
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.TopK(0.4, 0, []string{"coffee"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("results = %v", got)
	}
	if got[0].ObjectID != 0 && got[0].ObjectID != 1 {
		t.Errorf("top object = %d, want a coffee place", got[0].ObjectID)
	}
	if got[0].Score < got[1].Score {
		t.Error("results not descending")
	}
	if _, err := idx.TopK(0, 0, nil, 0); err == nil {
		t.Error("k=0 should error")
	}
	if idx.NumObjects() != 3 {
		t.Errorf("NumObjects = %d", idx.NumObjects())
	}
}

func TestSessionReuse(t *testing.T) {
	idx, req := paperExample(t)
	s, err := idx.NewSession(req.Users, req.K)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Thresholds(); len(got) != 4 {
		t.Fatalf("thresholds = %v", got)
	}
	// same session, different candidate sets
	res1, err := s.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	req2 := req
	req2.Keywords = []string{"noodles"}
	res2, err := s.Run(req2)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Count() < res2.Count() {
		t.Errorf("restricting W should not increase the count: %d vs %d", res1.Count(), res2.Count())
	}
	// k mismatch is rejected
	req3 := req
	req3.K = 2
	if _, err := s.Run(req3); err == nil {
		t.Error("k mismatch should be rejected")
	}
}

func TestSessionValidation(t *testing.T) {
	idx, req := paperExample(t)
	if _, err := idx.NewSession(nil, 1); err == nil {
		t.Error("no users should be rejected")
	}
	if _, err := idx.NewSession(req.Users, 0); err == nil {
		t.Error("k=0 should be rejected")
	}
	s, err := idx.NewSession(req.Users, req.K)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req.K = 9
	if _, err := s.RunTopL(req, 2); err == nil {
		t.Error("RunTopL: k mismatch should be rejected")
	}
	if _, err := s.RunMultiple(req, 2); err == nil {
		t.Error("RunMultiple: k mismatch should be rejected")
	}
}

func TestUnknownKeywordsHandled(t *testing.T) {
	idx, req := paperExample(t)
	req.Keywords = []string{"sushi", "unobtainium"}
	req.MaxKeywords = 2
	res, err := idx.MaxBRSTkNN(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range res.Keywords {
		if kw == "unobtainium" {
			t.Error("unknown keyword selected")
		}
	}
	// all-unknown candidate set degrades to location-only selection
	req.Keywords = []string{"x", "y"}
	req.MaxKeywords = 1
	if _, err := idx.MaxBRSTkNN(req); err != nil {
		t.Fatalf("all-unknown keywords: %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{Exact: "exact", Approx: "approx", Exhaustive: "exhaustive", UserIndexed: "user-indexed"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.alpha() != 0.5 {
		t.Errorf("default alpha = %v", o.alpha())
	}
	o2 := Options{ExplicitAlpha: true}
	if o2.alpha() != 0 {
		t.Errorf("explicit zero alpha = %v", o2.alpha())
	}
	if o.fanout() != 32 {
		t.Errorf("default fanout = %v", o.fanout())
	}
}

func TestSimulatedIOAccounting(t *testing.T) {
	idx, req := paperExample(t)
	idx.ResetIO()
	if _, err := idx.MaxBRSTkNN(req); err != nil {
		t.Fatal(err)
	}
	if idx.SimulatedIO() == 0 {
		t.Error("query should charge simulated I/O")
	}
	idx.ResetIO()
	if idx.SimulatedIO() != 0 {
		t.Error("ResetIO should zero the counter")
	}
}

func TestIndexAddObjectIncremental(t *testing.T) {
	b := NewBuilder()
	b.AddObject(0, 0, "coffee")
	b.AddObject(10, 10, "tea")
	idx, err := b.Build(Options{Measure: KeywordOverlap})
	if err != nil {
		t.Fatal(err)
	}
	// nothing coffee-flavored near (5,5) yet
	before, err := idx.TopK(5, 5, []string{"coffee"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := idx.AddObject(5, 5, "coffee", "cake")
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("new id = %d, want 2", id)
	}
	after, err := idx.TopK(5, 5, []string{"coffee"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].ObjectID != 2 {
		t.Errorf("top-1 after insert = %d, want the new object", after[0].ObjectID)
	}
	if after[0].Score <= before[0].Score {
		t.Error("new nearby object should score higher than the old best")
	}
	if idx.NumObjects() != 3 {
		t.Errorf("NumObjects = %d", idx.NumObjects())
	}
	// MaxBRSTkNN still works on the grown index
	res, err := idx.MaxBRSTkNN(Request{
		Users:       []UserSpec{{X: 5, Y: 5.2, Keywords: []string{"cake"}}},
		Locations:   [][2]float64{{5.1, 5.1}},
		Keywords:    []string{"cake"},
		MaxKeywords: 1,
		K:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 1 {
		t.Errorf("grown-index query count = %d", res.Count())
	}
}

func TestBM25FacadeOption(t *testing.T) {
	b := NewBuilder()
	b.AddObject(0, 0, "x", "x", "y")
	b.AddObject(5, 5, "y")
	bmIdx, err := b.Build(Options{Measure: BM25Measure})
	if err != nil {
		t.Fatal(err)
	}
	got, err := bmIdx.TopK(0.1, 0.1, []string{"x"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ObjectID != 0 {
		t.Fatalf("BM25 top-1 = %v", got)
	}
	req := Request{
		Users:       []UserSpec{{X: 0, Y: 0, Keywords: []string{"x"}}},
		Keywords:    []string{"x", "y"},
		Locations:   [][2]float64{{0.2, 0.2}},
		MaxKeywords: 1,
		K:           1,
	}
	if _, err := bmIdx.MaxBRSTkNN(req); err != nil {
		t.Fatal(err)
	}
}
