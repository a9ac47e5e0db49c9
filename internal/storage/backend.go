package storage

// Backend is the record-store abstraction the object index is built on.
// The Pager is its one implementation; the interface is the seam tests
// substitute a wrapping store through. Records are immutable once written
// and identified by their first PageID, and a store that never reclaims
// allocates PageIDs contiguously, so replaying the same WriteRecord
// sequence reproduces the same addresses.
//
// Concurrency contract: single writer, any number of concurrent readers.
// WriteRecord and Reclaim require external single-writer serialization
// (index construction and the facade's writer mutex provide it); every
// other method is safe to call concurrently with them for addresses the
// caller obtained from a published snapshot.
type Backend interface {
	// WriteRecord stores data as a new record and returns its address.
	// data is handed over: the store may keep the caller's slice and serve
	// it to every reader of the record, without a copy, so from this call
	// on the caller must not write to it — no element write, copy into it,
	// append to it or in-place sort (the immutablealias analyzer flags
	// them). Build and mutations pass records encoded for the call.
	WriteRecord(data []byte) PageID
	// ReadRecord returns the record starting at id. The returned slice is
	// shared and immutable, like a DecodedCache.Get result: it may be the
	// store's own copy, handed to every reader of the record, so callers
	// may retain it but must not write through it.
	ReadRecord(id PageID) ([]byte, error)
	// ReadRecordAt returns bytes off to off+len(dst) of the record at id,
	// failing when the range is not inside it: a memory-resident record's
	// own bytes, with no copy, or the range read from the medium into dst.
	// The result is shared and immutable, as ReadRecord's is.
	ReadRecordAt(id PageID, dst []byte, off int) ([]byte, error)
	// Resident reports whether the record at id is held in memory, so
	// ReadRecord returns the store's own bytes, not a fresh copy.
	Resident(id PageID) bool
	// RecordPages returns the number of pages the record at id occupies —
	// the block count the simulated I/O rule charges for loading it.
	RecordPages(id PageID) int
	// NumPages returns the total number of allocated pages.
	NumPages() int
	// Records returns the addresses of all live records in ascending
	// order.
	Records() []PageID
	// Reclaim frees the given records for reuse by later writes. The
	// caller promises that no reader holds — or can obtain — the freed
	// addresses (the epoch-pin protocol).
	Reclaim(ids []PageID)
	// ReadStats reports the physical reads the store served.
	ReadStats() ReadStats
}

// ReadStats counts physical record reads served by a backend — the
// real-I/O side of the ledger, reported next to the simulated-I/O counter.
// Records held in memory are not physical reads.
type ReadStats struct {
	// Records is the number of ReadRecord and ReadRecordAt calls that
	// reached the medium.
	Records int64
	// Pages is the number of pages those reads spanned.
	Pages int64
}
