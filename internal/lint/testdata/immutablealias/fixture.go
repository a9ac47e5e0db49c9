// Fixture for the immutablealias analyzer: values handed out by the
// cache layers, and buffers handed to the record store, are shared and
// must be treated as immutable.
package fixture

import (
	"slices"
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
	ps := v.([]invfile.EntryWeight)
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

func writeAfterHandover(p *storage.Pager) storage.PageID {
	buf := make([]byte, 8)
	buf[1] = 2 // negative: before the handover
	id := p.WriteRecord(buf)
	buf[0] = 1 // want "write through shared value buf"
	return id
}

func appendAfterHandover(b storage.Backend, rec []byte) []byte {
	b.WriteRecord(rec)
	rec = append(rec, 0) // want "append to shared value rec"
	return rec
}

func copyIntoHandedOver(b storage.Backend, src []byte) {
	buf := make([]byte, len(src))
	copy(buf, src) // negative: before the handover
	b.WriteRecord(buf)
	copy(buf, src) // want "copy into shared value buf"
}

func sortHandedOver(p *storage.Pager, buf []byte) {
	p.WriteRecord(buf)
	slices.Sort(buf) // want "in-place sort of shared value buf"
}

func resliceHandedOver(p *storage.Pager, buf []byte) {
	p.WriteRecord(buf)
	tail := buf[4:]
	tail[0] = 0 // want "write through shared value tail"
}

func freshBufferAfterHandover(p *storage.Pager) { // negative
	buf := []byte{1}
	p.WriteRecord(buf)
	buf = make([]byte, 1)
	buf[0] = 2
	p.WriteRecord(buf)
}

// built holds a composed record, as irtree's Build and mutations do.
type built struct{ inv []byte }

func writeAfterFieldHandover(p *storage.Pager, b *built) storage.PageID {
	id := p.WriteRecord(b.inv)
	b.inv[0] = 0 // want "write through shared value b.inv"
	return id
}

func freshFieldAfterHandover(p *storage.Pager, b *built) { // negative
	p.WriteRecord(b.inv)
	b.inv = make([]byte, 1)
	b.inv[0] = 1
}
