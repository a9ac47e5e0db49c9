package textrel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/testgen"
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

// drawBoundInstance builds a scorer from draw seed over a model with no
// statistics for the new terms. The documents are the distinct ones among
// the corpus's, the written objects' (which hold new terms), ox.d and the
// empty one; W, ws and the locations are the first query's.
func drawBoundInstance(seed int64) *boundInstance {
	d := testgen.Draw(seed)
	ds, q := testgen.Dataset(d), d.Queries[0]
	in := &boundInstance{locs: q.Locations, users: d.Users, w: testgen.Candidates(q), ws: q.WS}
	add := func(doc vocab.Doc) { // each distinct document once
		if !slices.ContainsFunc(in.docs, doc.Equal) {
			in.docs = append(in.docs, doc)
		}
	}
	for _, o := range ds.Objects {
		add(o.Doc)
	}
	for _, w := range d.Script {
		add(w.Object.Doc)
	}
	add(q.OxDoc)
	add(vocab.Doc{})
	in.s = &Scorer{Model: NewModelWithLambda(MeasureKind(d.Measure), ds, d.Lambda), Alpha: d.Alpha,
		DMax: ds.DMax(dataset.UsersMBR(d.Users))}
	return in
}

// ublFunc is TSAddUpperBound's signature, so the property can be held to
// another form of the bound.
type ublFunc func(s *Scorer, oxDoc, ud vocab.Doc, w CandidateSet, ws int) float64

// boundViolations holds every bound of in to the exact score it bounds,
// with no slack, and describes each that fails; it formats nothing else,
// as it makes millions of comparisons. The bounds, UBL's sum formed by ubl:
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
func boundViolations(in *boundInstance, ubl ublFunc) (bad []string) {
	s, w := in.s, NewCandidateSet(in.w)
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
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
					if !(lb[g][li][di] <= bare) {
						fail("lower bound %v of users 0..%d above user %d's score %v of doc %d at location %d", lb[g][li][di], g, ui, bare, di, li)
					}
				}
				ubUser := s.Combine(s.SS(loc, u.Loc), ubl(s, ox, u.Doc, w, in.ws), norms[ui])
				for ci, c := range combos {
					exact := s.STS(loc, merged[di][ci], u.Loc, u.Doc, norms[ui])
					if !(exact <= ubUser) {
						fail("UBL(ℓ,u) %v below user %d's score %v of doc %d ∪ %v at location %d", ubUser, ui, exact, di, c, li)
					}
					for g := ui; g < len(in.users); g++ {
						if !(exact <= ub[g][li][di]) {
							fail("UBL(ℓ,us) %v of users 0..%d below user %d's score %v of doc %d ∪ %v at location %d", ub[g][li][di], g, ui, exact, di, c, li)
						}
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
				if !(ssMin <= ss && ss <= ssMax) {
					fail("SS %v of %v, %v outside [SSMin %v, SSMax %v]", ss, p, q, ssMin, ssMax)
				}
			}
		}
	}
	return bad
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
		if bad := boundViolations(drawBoundInstance(seed), (*Scorer).TSAddUpperBound); len(bad) > 0 {
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
	unguardedUBLSeeds   = []int64{117, 189, 373, 1013, 1109}
	unguardedSSMinSeeds = []int64{263, 322, 1293, 1298}
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
		if bad := boundViolations(drawBoundInstance(seed), gainsLastUBL); len(bad) == 0 {
			t.Errorf("seed %d: no bound fails with the gains added unguarded", seed)
		}
	}
}
