package storage

// RetireSet collects the records an in-flight copy-on-write mutation
// supersedes. A superseded record stays readable while snapshots
// published before the mutation may still read it, and is reclaimed once
// no reader pins them — but once the successor snapshot is installed no
// future reader will ask for it, so its decoded form is dead weight in
// the DecodedCache. Apply runs at publish time (and only then: an
// abandoned mutation retires nothing), evicting the decoded entries in
// one batch. This replaces the old writer-side DecodedCache.Delete calls
// that fired mid-mutation — those invalidated entries still-live
// snapshots were reading, which was harmless for correctness (the cache
// re-decodes from the store on a miss) but charged concurrent readers
// decode work for records that had not actually changed under them.
//
// The zero value is an empty set, ready to use.
type RetireSet struct {
	ids []PageID
}

// Add records id as superseded by the mutation being prepared.
func (r *RetireSet) Add(id PageID) {
	if id == InvalidPage {
		return
	}
	r.ids = append(r.ids, id)
}

// Len returns the number of records retired so far.
func (r *RetireSet) Len() int { return len(r.ids) }

// IDs returns a copy of the retired record addresses — the list the
// backend reclaims once no snapshot can still read them.
func (r *RetireSet) IDs() []PageID {
	out := make([]PageID, len(r.ids))
	copy(out, r.ids)
	return out
}

// Apply evicts every retired record's decoded entry from c and returns
// the record and page counts retired, sized through b. Call it exactly
// once, after the successor snapshot is published. Entries evicted here
// may still be re-decoded by readers pinning older snapshots; that is a
// cache-efficiency tradeoff, never a correctness one.
func (r *RetireSet) Apply(c *DecodedCache, b Backend) (records, pages int64) {
	for _, id := range r.ids {
		pages += int64(b.RecordPages(id))
		c.Delete(id)
	}
	return int64(len(r.ids)), pages
}
