// Fixture for the immutablealias analyzer: values handed out by the
// cache layers are shared and must be treated as immutable.
package fixture

import (
	"sort"

	"repro/internal/invfile"
	"repro/internal/storage"
)

func writeThroughBackendRange(b storage.Backend, id storage.PageID, dst []byte) error {
	buf, err := b.ReadRecordAt(id, dst, 0)
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

func sortPagerRange(p *storage.Pager, id storage.PageID, dst []byte) error {
	buf, err := p.ReadRecordAt(id, dst, 8)
	if err != nil {
		return err
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] }) // want "in-place sort of shared value buf"
	return nil
}

func copyIntoBackendRecord(b storage.Backend, id storage.PageID, src []byte) error {
	rec, err := b.ReadRecord(id)
	if err != nil {
		return err
	}
	copy(rec, src) // want "copy into shared value rec"
	return nil
}

func fieldWriteInCachedPostings(c *storage.DecodedCache, id storage.PageID) {
	v, ok := c.Get(id)
	if !ok {
		return
	}
	ps := v.([]invfile.Posting)
	ps[0].MaxW = 0 // want "field write through shared value ps"
}

func resliceStillShared(p *storage.Pager, id storage.PageID, dst []byte) error {
	buf, err := p.ReadRecordAt(id, dst, 0)
	if err != nil {
		return err
	}
	header := buf[:8]
	header[0] = 1 // want "write through shared value header"
	return nil
}

func reassignKillsTaint(b storage.Backend, id storage.PageID, dst []byte) error { // negative
	buf, err := b.ReadRecordAt(id, dst, 0)
	if err != nil {
		return err
	}
	buf = append([]byte(nil), buf...) // fresh backing array
	buf[0] = 1
	return nil
}

func readOnlyUse(b storage.Backend, id storage.PageID, dst []byte) int { // negative
	buf, err := b.ReadRecordAt(id, dst, 0)
	if err != nil {
		return 0
	}
	var sum int
	for _, b := range buf {
		sum += int(b)
	}
	return sum
}

func appendToPagerRange(p *storage.Pager, id storage.PageID, dst []byte) ([]byte, error) {
	run, err := p.ReadRecordAt(id, dst, 4)
	if err != nil {
		return nil, err
	}
	return append(run, 0), nil // want "append to shared value run"
}
