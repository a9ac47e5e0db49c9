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
// every entry's sums start at maxStart and minStart, and every term a
// query wants, in ascending order, adds to each entry the weights of its
// posting in the term's run, if it has one. A posting whose entry is not
// above every entry before it in the run counts for nothing.
func referenceSums(f *File, nEntries int, maxTerms, minTerms []vocab.TermID, maxStart, minStart float64) (maxSums, minSums []float64, err error) {
	maxSums, minSums = make([]float64, nEntries), make([]float64, nEntries)
	for i := range nEntries {
		maxSums[i], minSums[i] = maxStart, minStart
	}
	wanted := slices.Concat(maxTerms, minTerms)
	slices.Sort(wanted)
	for _, t := range slices.Compact(wanted) {
		wantMax, wantMin := slices.Contains(maxTerms, t), slices.Contains(minTerms, t)
		top := int32(-1)
		for _, p := range f.Postings(t) {
			if p.Entry < 0 || int(p.Entry) >= nEntries {
				return nil, nil, fmt.Errorf("posting entry %d out of range", p.Entry)
			}
			if p.Entry <= top {
				continue
			}
			top = p.Entry
			if wantMax {
				maxSums[p.Entry] += p.MaxW
			}
			if wantMin {
				minSums[p.Entry] += p.MinW
			}
		}
	}
	return maxSums, minSums, nil
}
