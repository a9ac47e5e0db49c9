// Package dataset defines the bichromatic spatial-textual data model of the
// paper — a set of objects O and a set of users U, each a (location,
// keywords) pair — together with corpus statistics and the synthetic
// workload generators that stand in for the Flickr and Yelp collections of
// Section 8: neither collection ships with the repository, so the
// generators reproduce their Table 4 shape — document length, vocabulary
// skew, spatial clustering — at laptop scale.
package dataset

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/vocab"
)

// Object is an element of the object set O: a facility, advertisement, or
// business with a point location and a text description.
type Object struct {
	ID  int32
	Loc geo.Point
	Doc vocab.Doc
}

// User is an element of the user set U: a customer with a point location
// and a set of preference keywords.
type User struct {
	ID  int32
	Loc geo.Point
	Doc vocab.Doc
}

// Dataset bundles the object collection with its vocabulary and the corpus
// statistics every text-relevance model needs.
type Dataset struct {
	Objects []Object
	Vocab   *vocab.Vocabulary
	Stats   CorpusStats
	// Space is the MBR of all object locations; dmax (Equation 2) is
	// derived from it, possibly extended by user and candidate locations.
	Space geo.Rect
}

// CorpusStats holds the collection-level term statistics of Section 3:
// collection term frequencies for Language-Model smoothing (tf(t,C) and
// |C| in Equation 3) and document frequencies for IDF.
type CorpusStats struct {
	CollectionFreq []int64 // per TermID: total occurrences in all of O
	DocFreq        []int32 // per TermID: number of objects containing t
	TotalTerms     int64   // |C|: total term occurrences across O
	NumDocs        int32   // |O|
}

// Build constructs a Dataset from objects sharing the given vocabulary.
func Build(objects []Object, v *vocab.Vocabulary) *Dataset {
	stats := CorpusStats{
		CollectionFreq: make([]int64, v.Size()),
		DocFreq:        make([]int32, v.Size()),
		NumDocs:        int32(len(objects)),
	}
	space := geo.EmptyRect()
	for _, o := range objects {
		space = space.UnionPoint(o.Loc)
		o.Doc.ForEach(func(t vocab.TermID, f int32) {
			stats.CollectionFreq[t] += int64(f)
			stats.DocFreq[t]++
			stats.TotalTerms += int64(f)
		})
	}
	return &Dataset{Objects: objects, Vocab: v, Stats: stats, Space: space}
}

// DMax returns the normalization distance of Equation 2: the diagonal of
// the dataset MBR extended to cover the given extra rectangles (user MBR,
// candidate locations), so that SS stays within [0,1] for every pair the
// query evaluates.
func (d *Dataset) DMax(extra ...geo.Rect) float64 {
	r := d.Space
	for _, e := range extra {
		r = r.Union(e)
	}
	diag := r.Diagonal()
	if diag == 0 {
		return 1 // degenerate single-point space: any positive constant works
	}
	return diag
}

// Properties describes a dataset the way Table 4 of the paper does.
type Properties struct {
	TotalObjects     int
	TotalUniqueTerms int
	AvgUniquePerObj  float64
	TotalTermsInData int64
}

// Describe computes the Table 4 property row for the dataset.
func (d *Dataset) Describe() Properties {
	var uniqueSum int64
	for _, o := range d.Objects {
		uniqueSum += int64(o.Doc.Unique())
	}
	avg := 0.0
	if len(d.Objects) > 0 {
		avg = float64(uniqueSum) / float64(len(d.Objects))
	}
	return Properties{
		TotalObjects:     len(d.Objects),
		TotalUniqueTerms: d.Vocab.Size(),
		AvgUniquePerObj:  avg,
		TotalTermsInData: d.Stats.TotalTerms,
	}
}

// String formats the properties as a Table 4-style block.
func (p Properties) String() string {
	return fmt.Sprintf("objects=%d uniqueTerms=%d avgUniquePerObject=%.1f totalTerms=%d",
		p.TotalObjects, p.TotalUniqueTerms, p.AvgUniquePerObj, p.TotalTermsInData)
}

// UsersMBR returns the minimum bounding rectangle of the user locations —
// the super-user's us.l of Section 5.2.
func UsersMBR(users []User) geo.Rect {
	r := geo.EmptyRect()
	for _, u := range users {
		r = r.UnionPoint(u.Loc)
	}
	return r
}
