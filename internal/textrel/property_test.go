package textrel

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/vocab"
)

// boundInstance is a drawn instance of the bound property: a scorer over a
// small random corpus, candidate locations, object documents and users.
type boundInstance struct {
	s     *Scorer
	locs  []geo.Point
	docs  []vocab.Doc
	users []dataset.User
	w     []vocab.TermID // the candidate keywords W, ascending
	ws    int
}

// drawBoundInstance draws an instance from seed over all four measures, α
// and λ. The documents include duplicates, keywordless ones and ones
// holding terms the model has no statistics for (as an object added after
// the model was made does); users and W include unknown terms.
func drawBoundInstance(seed int64) *boundInstance {
	rng := rand.New(rand.NewSource(seed))
	v := vocab.New()
	nWords := 1 + rng.Intn(10)
	for i := range nWords {
		v.Add(fmt.Sprintf("w%d", i))
	}
	word := func() vocab.TermID { return vocab.TermID(float64(nWords) * math.Pow(rng.Float64(), 2)) }
	point := func() geo.Point {
		if rng.Intn(4) == 0 {
			return geo.Point{X: float64(rng.Intn(5)) * 2.5, Y: float64(rng.Intn(5)) * 2.5}
		}
		return geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	doc := func(n int) vocab.Doc {
		f := map[vocab.TermID]int32{}
		for range rng.Intn(n + 1) {
			f[word()]++
		}
		return vocab.NewDoc(f)
	}
	objs := make([]dataset.Object, 1+rng.Intn(30))
	for i := range objs {
		objs[i] = dataset.Object{ID: int32(i), Loc: point(), Doc: doc(6)}
		if i > 0 && rng.Intn(6) == 0 {
			objs[i] = objs[rng.Intn(i)]
		}
	}
	ds := dataset.Build(objs, v)
	kind := MeasureKind(rng.Intn(4))
	lambda := []float64{rng.Float64(), DefaultLambda, 0.85, 0.1, 0, 1}[rng.Intn(6)]
	full := NewModelWithLambda(kind, ds, lambda)
	known := 1 + rng.Intn(nWords) // terms from known on are unknown to the model
	st := ds.Stats
	st.CollectionFreq, st.DocFreq = st.CollectionFreq[:known], st.DocFreq[:known]
	m, err := NewModelFrozen(kind, st, lambda, MaxWeights(full, known))
	if err != nil {
		panic(err)
	}
	in := &boundInstance{ws: 1 + rng.Intn(4)}
	for i := range ds.Objects {
		in.docs = append(in.docs, ds.Objects[i].Doc)
	}
	in.docs = append(in.docs, vocab.Doc{})
	term := func() vocab.TermID {
		if rng.Intn(6) == 0 {
			return vocab.UnknownTerm(rng.Intn(2))
		}
		return word()
	}
	for i := range 1 + rng.Intn(6) {
		var terms []vocab.TermID
		for range rng.Intn(5) {
			terms = append(terms, term())
		}
		in.users = append(in.users, dataset.User{ID: int32(i), Loc: point(), Doc: vocab.DocFromTerms(terms)})
	}
	for range rng.Intn(7) {
		in.w = append(in.w, term())
	}
	slices.Sort(in.w)
	in.w = slices.Compact(in.w)
	for range 1 + rng.Intn(4) {
		in.locs = append(in.locs, point())
	}
	in.s = &Scorer{Model: m, Alpha: rng.Float64(), DMax: ds.DMax(dataset.UsersMBR(in.users))}
	return in
}

// ublFunc is TSAddUpperBound's signature, so the property can be held to
// another form of the bound.
type ublFunc func(s *Scorer, oxDoc, ud vocab.Doc, w CandidateSet, ws int) float64

// boundViolations holds every bound of in to the exact score it bounds,
// with no slack, and returns how many comparisons it made and a description
// of each that failed. The bounds, UBL's sum formed by ubl:
//
//   - UBL(ℓ,u) = Combine(SS, ubl(ox.d, u.d), Norm(u)), against u's exact
//     score of ox.d ∪ c at ℓ for every c ⊆ W with |c| ≤ ws;
//   - UBL(ℓ,us) = Combine(SSMax, ubl(ox.d, us.Uni), MinNorm), against the
//     same scores of each user of the super-user us, for us the super-user
//     of each prefix of the users;
//   - the lower bound Combine(SSMin, Sum(ox.d, us.Int), MaxNorm), against
//     each such user's exact score of ox.d at ℓ;
//   - SSMax and SSMin of two rectangles against SS of every pair of the
//     points they bound.
func boundViolations(in *boundInstance, ubl ublFunc) (cases int, bad []string) {
	s, w := in.s, NewCandidateSet(in.w)
	check := func(ok bool, format string, args ...any) {
		cases++
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	var combos [][]vocab.TermID
	for size := 0; size <= min(in.ws, len(in.w)); size++ {
		container.Combinations(in.w, size, func(c []vocab.TermID) bool {
			combos = append(combos, slices.Clone(c))
			return true
		})
	}
	merged := make([][]vocab.Doc, len(in.docs)) // ox.d ∪ c per document and combination
	for di, ox := range in.docs {
		for _, c := range combos {
			merged[di] = append(merged[di], ox.MergeTerms(c))
		}
	}
	// ub[g][li][di] and lb[g][li][di] are the super-user bounds of the
	// first g+1 users.
	norms := s.UserNorms(in.users)
	ub, lb := make([][][]float64, len(in.users)), make([][][]float64, len(in.users))
	mbr, uni, ints := geo.EmptyRect(), []vocab.TermID(nil), in.users[0].Doc.Terms()
	for g := range in.users {
		u := &in.users[g]
		mbr = mbr.UnionPoint(u.Loc)
		uni = append(uni, u.Doc.Terms()...)
		slices.Sort(uni)
		uni = slices.Compact(uni)
		ints = slices.DeleteFunc(slices.Clone(ints), func(t vocab.TermID) bool { return !u.Doc.Has(t) })
		minNorm, maxNorm := slices.Min(norms[:g+1]), slices.Max(norms[:g+1])
		for _, loc := range in.locs {
			var ubs, lbs []float64
			for _, ox := range in.docs {
				ubs = append(ubs, s.Combine(s.SSMax(geo.RectFromPoint(loc), mbr), ubl(s, ox, vocab.DocFromTerms(uni), w, in.ws), minNorm))
				lbs = append(lbs, s.Combine(s.SSMin(geo.RectFromPoint(loc), mbr), s.Model.Sum(ox, ints), maxNorm))
			}
			ub[g], lb[g] = append(ub[g], ubs), append(lb[g], lbs)
		}
	}
	for ui := range in.users {
		u := &in.users[ui]
		for li, loc := range in.locs {
			for di, ox := range in.docs {
				bare := s.STS(loc, ox, u.Loc, u.Doc, norms[ui])
				for g := ui; g < len(in.users); g++ {
					check(lb[g][li][di] <= bare, "lower bound %v of users 0..%d above user %d's score %v of doc %d at location %d", lb[g][li][di], g, ui, bare, di, li)
				}
				ubUser := s.Combine(s.SS(loc, u.Loc), ubl(s, ox, u.Doc, w, in.ws), norms[ui])
				for ci, c := range combos {
					exact := s.STS(loc, merged[di][ci], u.Loc, u.Doc, norms[ui])
					check(exact <= ubUser, "UBL(ℓ,u) %v below user %d's score %v of doc %d ∪ %v at location %d", ubUser, ui, exact, di, c, li)
					for g := ui; g < len(in.users); g++ {
						check(exact <= ub[g][li][di], "UBL(ℓ,us) %v of users 0..%d below user %d's score %v of doc %d ∪ %v at location %d", ub[g][li][di], g, ui, exact, di, c, li)
					}
				}
			}
		}
	}
	pts := slices.Clone(in.locs)
	for i := range in.users {
		pts = append(pts, in.users[i].Loc, nudge(in.users[i].Loc))
	}
	for cut := 1; cut < len(pts); cut++ {
		a, b := boundingRect(pts[:cut]), boundingRect(pts[cut:])
		ssMax, ssMin := s.SSMax(a, b), s.SSMin(a, b)
		for _, p := range pts[:cut] {
			for _, q := range pts[cut:] {
				ss := s.SS(p, q)
				check(ssMin <= ss && ss <= ssMax, "SS %v of %v, %v outside [SSMin %v, SSMax %v]", ss, p, q, ssMin, ssMax)
			}
		}
	}
	return cases, bad
}

// nudge moves p up and right by a few floats, so bounding rectangles have
// sides an ulp or two apart.
func nudge(p geo.Point) geo.Point {
	return geo.Point{X: math.Nextafter(math.Nextafter(p.X, math.Inf(1)), math.Inf(1)), Y: math.Nextafter(p.Y, math.Inf(1))}
}

func boundingRect(pts []geo.Point) geo.Rect {
	r := geo.EmptyRect()
	for _, p := range pts {
		r = r.UnionPoint(p)
	}
	return r
}

// FuzzBoundsDominate: on every drawn instance, every UBL(ℓ,u), UBL(ℓ,us),
// group lower bound and spatial bound holds for the exact score it bounds,
// bit for bit (boundViolations).
func FuzzBoundsDominate(f *testing.F) {
	for seed := range int64(64) {
		f.Add(seed)
	}
	for _, seed := range slices.Concat(unguardedUBLSeeds, unguardedSSMinSeeds) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, bad := boundViolations(drawBoundInstance(seed), (*Scorer).TSAddUpperBound); len(bad) > 0 {
			t.Fatalf("seed %d: %d bounds fail, first: %s", seed, len(bad), bad[0])
		}
	})
}

// The instances on which an unguarded bound fell below an exact score:
// UBL(ℓ,u) with its gains added after Model.Sum (gainsLastUBL), and SSMin
// over the standard library's Hypot, which is not monotone, rounding MaxDist
// below a point pair's distance. geo's distance is monotone, so SSMin
// needs no guard; the SSMin seeds stay as fuzz seeds, and they fail again
// if a non-monotone distance comes back.
var (
	unguardedUBLSeeds   = []int64{3022, 3107, 3233, 4041, 5430}
	unguardedSSMinSeeds = []int64{551, 572, 728}
)

// gainsLastUBL is TSAddUpperBound without its guard: the top-ws gains added
// after Model.Sum.
func gainsLastUBL(s *Scorer, oxDoc, ud vocab.Doc, w CandidateSet, ws int) float64 {
	var gains []float64
	for _, t := range ud.Terms() {
		if g := s.Model.AddWeight(oxDoc, t); w[t] && g > 0 {
			gains = append(gains, g)
		}
	}
	slices.SortFunc(gains, func(a, b float64) int { return cmp.Compare(b, a) })
	sum := s.Model.Sum(oxDoc, ud.Terms())
	for _, g := range gains[:min(ws, len(gains))] {
		sum += g
	}
	return sum
}

// TestBoundsCatchUnguardedUBL: the property fails for the unguarded sum on
// the instances that showed it.
func TestBoundsCatchUnguardedUBL(t *testing.T) {
	for _, seed := range unguardedUBLSeeds {
		if _, bad := boundViolations(drawBoundInstance(seed), gainsLastUBL); len(bad) == 0 {
			t.Errorf("seed %d: no bound fails with the gains added unguarded", seed)
		}
	}
}
