package storage

// RetireSet collects the records an in-flight copy-on-write mutation
// supersedes. A superseded record stays readable while snapshots
// published before the mutation may still read it, and is reclaimed once
// no reader pins them — but once the successor snapshot is installed no
// future reader will ask for it, so its decoded form is dead weight in
// the DecodedCache. Apply runs at publish time (and only then: an
// abandoned mutation retires nothing), evicting the decoded entries in
// one batch, never mid-mutation under readers of live snapshots.
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
// once, after the successor snapshot is published. Readers pinning older
// snapshots may re-insert an entry evicted here, so the reclaimer evicts
// once more before freeing the pages: correctness rests on that pair, as
// a decoded node and a detached posting directory name their record by
// address and would otherwise read whatever record reuses the slot.
func (r *RetireSet) Apply(c *DecodedCache, b Backend) (records, pages int64) {
	for _, id := range r.ids {
		pages += int64(b.RecordPages(id))
		c.Delete(id)
	}
	return int64(len(r.ids)), pages
}
