package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/vocab"
)

// FlickrConfig parameterizes the synthetic stand-in for the Yahoo I3 Flickr
// collection: many objects, short documents (avg ~7 unique tags), a large
// Zipf-skewed vocabulary, and spatially clustered locations.
type FlickrConfig struct {
	NumObjects int
	VocabSize  int     // distinct tags available (paper: 166,317 at 1M objects)
	MeanTags   float64 // average unique tags per object (paper: 6.9)
	NumCluster int     // spatial clusters (photo hot-spots)
	Zipf       float64 // tag-popularity skew exponent (>1)
	Seed       int64
}

// DefaultFlickrConfig returns a laptop-scale configuration whose shape
// matches Table 4 (the package comment says why the data is synthetic).
func DefaultFlickrConfig(n int) FlickrConfig {
	vs := n / 6
	if vs < 200 {
		vs = 200
	}
	return FlickrConfig{
		NumObjects: n,
		VocabSize:  vs,
		MeanTags:   6.9,
		NumCluster: 32,
		Zipf:       1.2,
		Seed:       1,
	}
}

// GenerateFlickr builds a Flickr-like dataset.
func GenerateFlickr(cfg FlickrConfig) *Dataset {
	if cfg.NumObjects <= 0 {
		panic("dataset: NumObjects must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := vocab.New()
	for i := 0; i < cfg.VocabSize; i++ {
		v.Add(fmt.Sprintf("tag%05d", i))
	}
	zipf := newZipfSampler(cfg.VocabSize, cfg.Zipf, rng)
	clusters := makeClusters(cfg.NumCluster, rng)

	objects := make([]Object, cfg.NumObjects)
	for i := range objects {
		loc := clusters.sample(rng)
		nTags := 1 + poisson(rng, cfg.MeanTags-1)
		tf := make(map[vocab.TermID]int32, nTags)
		for len(tf) < nTags {
			tf[vocab.TermID(zipf.sample())] = 1
		}
		objects[i] = Object{ID: int32(i), Loc: loc, Doc: vocab.NewDoc(tf)}
	}
	return Build(objects, v)
}

// YelpConfig parameterizes the synthetic stand-in for the Yelp academic
// dataset: fewer objects with long documents (attributes + reviews, avg
// ~399 unique terms per business over a 267K vocabulary).
type YelpConfig struct {
	NumObjects int
	VocabSize  int
	MeanTerms  float64 // average unique terms per object (paper: 398.7)
	MeanTF     float64 // average term frequency within a document
	NumCluster int
	Zipf       float64
	Seed       int64
}

// DefaultYelpConfig returns a laptop-scale Yelp-like configuration.
func DefaultYelpConfig(n int) YelpConfig {
	vs := n * 4
	if vs < 500 {
		vs = 500
	}
	return YelpConfig{
		NumObjects: n,
		VocabSize:  vs,
		MeanTerms:  80, // scaled down from 398.7 with the object count
		MeanTF:     3,
		NumCluster: 12,
		Zipf:       1.1,
		Seed:       2,
	}
}

// GenerateYelp builds a Yelp-like dataset with long documents, exercising
// the Language Model's length normalization and large posting lists.
func GenerateYelp(cfg YelpConfig) *Dataset {
	if cfg.NumObjects <= 0 {
		panic("dataset: NumObjects must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := vocab.New()
	for i := 0; i < cfg.VocabSize; i++ {
		v.Add(fmt.Sprintf("word%06d", i))
	}
	zipf := newZipfSampler(cfg.VocabSize, cfg.Zipf, rng)
	clusters := makeClusters(cfg.NumCluster, rng)

	objects := make([]Object, cfg.NumObjects)
	for i := range objects {
		loc := clusters.sample(rng)
		nTerms := 1 + poisson(rng, cfg.MeanTerms-1)
		tf := make(map[vocab.TermID]int32, nTerms)
		for len(tf) < nTerms {
			t := vocab.TermID(zipf.sample())
			if _, ok := tf[t]; !ok {
				tf[t] = int32(1 + poisson(rng, cfg.MeanTF-1))
			}
		}
		objects[i] = Object{ID: int32(i), Loc: loc, Doc: vocab.NewDoc(tf)}
	}
	return Build(objects, v)
}

// UserConfig parameterizes the user-generation procedure of Section 8:
// pick an Area-sized region, sample |U| objects inside it for locations,
// pool UW keywords from those objects, and deal UL keywords to each user
// following the pooled distribution. The pooled keywords double as the
// candidate keyword set W.
type UserConfig struct {
	NumUsers int     // |U|
	UL       int     // keywords per user
	UW       int     // total unique keywords pooled (also |W|)
	Area     float64 // side length of the sampling region (degrees in the paper)
	Seed     int64
}

// UserSet is one generated set of users plus the derived candidate pools.
type UserSet struct {
	Users    []User
	Keywords []vocab.TermID // the UW pooled keywords = candidate set W
	Region   geo.Rect       // the Area × Area sampling region
}

// GenerateUsers runs the Section 8 procedure against ds. It panics when the
// dataset is empty; it degrades gracefully (smaller pools) when the region
// holds fewer objects or keywords than requested.
func GenerateUsers(ds *Dataset, cfg UserConfig) UserSet {
	if len(ds.Objects) == 0 {
		panic("dataset: cannot generate users from an empty dataset")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	region := pickRegion(ds, cfg.Area, rng)
	inside := objectsIn(ds, region)
	if len(inside) == 0 {
		// Degenerate area: fall back to the whole space so the workload
		// still exists (only reachable with pathological Area values).
		region = ds.Space
		inside = objectsIn(ds, region)
	}

	// Sample |U| objects (with replacement when scarce) for user locations,
	// and pool their keywords weighted by occurrence.
	locs := make([]geo.Point, cfg.NumUsers)
	pool := make([]vocab.TermID, 0, cfg.NumUsers*4)
	for i := range locs {
		o := ds.Objects[inside[rng.Intn(len(inside))]]
		locs[i] = o.Loc
		pool = append(pool, o.Doc.Terms()...)
	}

	// Choose UW distinct keywords from the pool, most-frequent-biased by
	// sampling the pool uniformly (which is frequency-weighted).
	chosen := make([]vocab.TermID, 0, cfg.UW)
	seen := make(map[vocab.TermID]bool, cfg.UW)
	for attempts := 0; len(chosen) < cfg.UW && attempts < 50*cfg.UW+len(pool); attempts++ {
		t := pool[rng.Intn(len(pool))]
		if !seen[t] {
			seen[t] = true
			chosen = append(chosen, t)
		}
	}
	if len(chosen) == 0 { // all objects in region share one empty doc — impossible by construction, but stay safe
		chosen = append(chosen, ds.Objects[inside[0]].Doc.Terms()[0])
		seen[chosen[0]] = true
	}

	// Frequency of each chosen keyword in the pool drives the per-user deal.
	weights := make([]float64, len(chosen))
	for i, t := range chosen {
		for _, pt := range pool {
			if pt == t {
				weights[i]++
			}
		}
		if weights[i] == 0 {
			weights[i] = 1
		}
	}

	users := make([]User, cfg.NumUsers)
	for i := range users {
		ul := cfg.UL
		if ul > len(chosen) {
			ul = len(chosen)
		}
		terms := sampleDistinct(chosen, weights, ul, rng)
		users[i] = User{ID: int32(i), Loc: locs[i], Doc: vocab.DocFromTerms(terms)}
	}
	return UserSet{Users: users, Keywords: chosen, Region: region}
}

// pickRegion selects an Area × Area window inside the data space, anchored
// at a random object so it is never empty.
func pickRegion(ds *Dataset, area float64, rng *rand.Rand) geo.Rect {
	if area <= 0 {
		area = 1
	}
	anchor := ds.Objects[rng.Intn(len(ds.Objects))].Loc
	half := float64(area / 2)
	return geo.Rect{
		Min: geo.Point{X: anchor.X - half, Y: anchor.Y - half},
		Max: geo.Point{X: anchor.X + half, Y: anchor.Y + half},
	}
}

func objectsIn(ds *Dataset, r geo.Rect) []int {
	var out []int
	for i, o := range ds.Objects {
		if r.Contains(o.Loc) {
			out = append(out, i)
		}
	}
	return out
}

// sampleDistinct draws n distinct items from choices with the given
// weights (weighted without replacement).
func sampleDistinct(choices []vocab.TermID, weights []float64, n int, rng *rand.Rand) []vocab.TermID {
	w := append([]float64(nil), weights...)
	total := 0.0
	for _, x := range w {
		total += x
	}
	out := make([]vocab.TermID, 0, n)
	for len(out) < n && total > 0 {
		r := rng.Float64() * total
		for i := range w {
			if w[i] == 0 {
				continue
			}
			r -= w[i]
			if r <= 0 {
				out = append(out, choices[i])
				total -= w[i]
				w[i] = 0
				break
			}
		}
	}
	return out
}

// CandidateLocations draws n candidate locations for L uniformly from the
// user region expanded by margin (candidates near, but not exactly on, the
// users — as a service provider scouting sites would).
func CandidateLocations(region geo.Rect, n int, margin float64, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	r := geo.Rect{
		Min: geo.Point{X: region.Min.X - margin, Y: region.Min.Y - margin},
		Max: geo.Point{X: region.Max.X + margin, Y: region.Max.Y + margin},
	}
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{
			X: r.Min.X + float64(rng.Float64()*r.Width()),
			Y: r.Min.Y + float64(rng.Float64()*r.Height()),
		}
	}
	return out
}

// ---- samplers ----

type clusterSet struct {
	centers []geo.Point
	sigma   float64
}

// makeClusters spreads cluster centers over a 100×100 world.
func makeClusters(n int, rng *rand.Rand) clusterSet {
	if n <= 0 {
		n = 1
	}
	cs := clusterSet{centers: make([]geo.Point, n), sigma: 2.0}
	for i := range cs.centers {
		cs.centers[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return cs
}

func (c clusterSet) sample(rng *rand.Rand) geo.Point {
	ctr := c.centers[rng.Intn(len(c.centers))]
	return geo.Point{
		X: ctr.X + float64(rng.NormFloat64()*c.sigma),
		Y: ctr.Y + float64(rng.NormFloat64()*c.sigma),
	}
}

// zipfSampler draws term ranks with P(rank i) ∝ 1/i^s.
type zipfSampler struct {
	z *rand.Zipf
}

func newZipfSampler(n int, s float64, rng *rand.Rand) zipfSampler {
	if s <= 1 {
		s = 1.0001 // rand.Zipf requires s > 1
	}
	return zipfSampler{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

func (z zipfSampler) sample() int { return int(z.z.Uint64()) }

// poisson draws from a Poisson distribution with the given mean using
// Knuth's method (means here are small).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 { // numeric safety for absurd means
			return k
		}
	}
}
