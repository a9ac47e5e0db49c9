package invfile

import (
	"fmt"
	"slices"

	"repro/internal/vocab"
)

// Decode parses a record into a File: the whole-file view the readers are
// tested against. The directory gives the terms and exact posting count,
// then one sweep reads every posting.
func Decode(buf []byte) (*File, error) {
	d, err := openDirectory(buf)
	if err != nil {
		return nil, err
	}
	f := &File{terms: make([]vocab.TermID, 0, d.n), starts: make([]int32, 0, d.n+1)}
	for range d.n {
		t, cnt, err := d.next()
		if err != nil {
			return nil, err
		}
		f.terms = append(f.terms, t)
		f.starts = append(f.starts, int32(d.total-cnt))
	}
	off, err := d.body()
	if err != nil {
		return nil, err
	}
	f.starts = append(f.starts, int32(d.total))
	f.postings = make([]Posting, d.total)
	stride, mask := d.stride(), d.mask()
	for i := range f.terms {
		e := uint32(0)
		for j := f.starts[i]; j < f.starts[i+1]; j, off = j+1, off+stride {
			e = (e + delta(buf, off)) & mask
			p := &f.postings[j]
			p.Entry = int32(e)
			p.MaxW, p.MinW = d.weights(buf, off)
		}
	}
	return f, nil
}

// referenceSums is the sums DecodeSumsInto defines, over a decoded file:
// every stored term a query wants, in ascending order, adds its postings
// to the all-floors baseline.
func referenceSums(f *File, nEntries int, maxTerms, minTerms []vocab.TermID, floorOf func(vocab.TermID) float64) (maxSums, minSums []float64, err error) {
	floorMax, floorMin := floorSums(maxTerms, minTerms, floorOf)
	maxSums, minSums = make([]float64, nEntries), make([]float64, nEntries)
	for i := range maxSums {
		maxSums[i], minSums[i] = floorMax, floorMin
	}
	for _, t := range f.Terms() {
		wantMax, wantMin := slices.Contains(maxTerms, t), slices.Contains(minTerms, t)
		if !wantMax && !wantMin {
			continue
		}
		floor := floorOf(t)
		for _, p := range f.Postings(t) {
			if p.Entry < 0 || int(p.Entry) >= nEntries {
				return nil, nil, fmt.Errorf("posting entry %d out of range", p.Entry)
			}
			if wantMax {
				maxSums[p.Entry] += p.MaxW - floor
			}
			if wantMin && p.MinW > floor {
				minSums[p.Entry] += p.MinW - floor
			}
		}
	}
	return maxSums, minSums, nil
}
