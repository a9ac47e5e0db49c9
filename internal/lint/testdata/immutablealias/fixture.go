// Fixture for the immutablealias analyzer: values handed out by the
// cache layers are shared and must be treated as immutable.
package fixture

import (
	"sort"

	"repro/internal/invfile"
	"repro/internal/storage"
	"repro/internal/vocab"
)

func writeThroughPoolRead(pool *storage.BufferPool, id storage.PageID) error {
	buf, _, err := pool.Read(id)
	if err != nil {
		return err
	}
	buf[0] = 0xff // want "write through shared value buf"
	return nil
}

func writeThroughBackendRecord(b storage.Backend, id storage.PageID) error {
	rec, err := b.ReadRecord(id)
	if err != nil {
		return err
	}
	rec[0] ^= 1 // want "write through shared value rec"
	return nil
}

func appendToPagerRecord(p *storage.Pager, id storage.PageID) ([]byte, error) {
	rec, err := p.ReadRecord(id)
	if err != nil {
		return nil, err
	}
	return append(rec, 0), nil // want "append to shared value rec"
}

func copyPagerRecordThenWrite(p *storage.Pager, id storage.PageID) ([]byte, error) { // negative: private copy
	rec, err := p.ReadRecord(id)
	if err != nil {
		return nil, err
	}
	own := append([]byte(nil), rec...)
	own[0] = 1
	return own, nil
}

func writeThroughCacheHit(c *storage.DecodedCache, id storage.PageID) {
	v, ok := c.Get(id)
	if !ok {
		return
	}
	b := v.([]byte)
	b[0] = 0 // want "write through shared value b"
}

func appendToTerms(f *invfile.File) []vocab.TermID {
	ts := f.Terms()
	return append(ts, 99) // want "append to shared value ts"
}

func sortSharedPostings(f *invfile.File, t vocab.TermID) {
	ps := f.Postings(t)
	sort.Slice(ps, func(i, j int) bool { return ps[i].MaxW < ps[j].MaxW }) // want "in-place sort of shared value ps"
}

func copyIntoShared(f *invfile.File, src []vocab.TermID) {
	ts := f.Terms()
	copy(ts, src) // want "copy into shared value ts"
}

func fieldWriteInPostings(f *invfile.File, t vocab.TermID) {
	ps := f.Postings(t)
	ps[0].MaxW = 0 // want "field write through shared value ps"
}

func resliceStillShared(pool *storage.BufferPool, id storage.PageID) error {
	buf, _, err := pool.Read(id)
	if err != nil {
		return err
	}
	header := buf[:8]
	header[0] = 1 // want "write through shared value header"
	return nil
}

func copyThenWrite(f *invfile.File) []vocab.TermID { // negative: private copy
	ts := f.Terms()
	out := make([]vocab.TermID, len(ts))
	copy(out, ts)
	out[0] = 1
	return out
}

func reassignKillsTaint(pool *storage.BufferPool, id storage.PageID) error { // negative
	buf, _, err := pool.Read(id)
	if err != nil {
		return err
	}
	buf = append([]byte(nil), buf...) // fresh backing array
	buf[0] = 1
	return nil
}

func readOnlyUse(f *invfile.File, t vocab.TermID) float64 { // negative
	var sum float64
	for _, p := range f.Postings(t) {
		sum += p.MaxW
	}
	return sum
}
