package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The index file holds a Pager's records at their page addresses, behind
// a crc-checked, versioned header page and ahead of a crc-checked record
// directory (first page id and byte length per record):
//
//	offset 0                      header page (magic, version, counts,
//	                              directory location, root record, CRC-32)
//	offset PageSize·(1+i)         data page i
//	offset dirOff                 directory + CRC-32
//
// WriteFile writes one; OpenPager serves its records as the file-resident
// records of a Pager.

// File-format constants. FormatVersion counts the layout of the whole
// index file — bump it whenever the header, directory, or any record
// encoding changes incompatibly; OpenPager rejects files from other
// versions.
const (
	FormatVersion = 1

	headerSize = 56 // magic(8) + version(4) + pages(8) + records(8) + dirOff(8) + dirLen(8) + root(8) + crc(4)
)

var fileMagic = [8]byte{'M', 'X', 'B', 'R', 'I', 'D', 'X', '1'}

// Sentinel errors for the corrupt- and mismatched-file paths, matchable
// with errors.Is.
var (
	// ErrBadMagic means the file is not an index file at all.
	ErrBadMagic = errors.New("storage: not an index file (bad magic)")
	// ErrVersionMismatch means the file uses a different format version.
	ErrVersionMismatch = errors.New("storage: index file format version mismatch")
	// ErrChecksum means a header or directory CRC check failed.
	ErrChecksum = errors.New("storage: index file checksum mismatch")
	// ErrTruncated means the file is shorter than its header promises.
	ErrTruncated = errors.New("storage: index file truncated")
)

// WriteFile writes b's live records to a new index file at path, each at
// its own page address. A freed page between two records is written as a
// one-page empty record, and freed pages past the last record are
// dropped. root is appended last as the file's entry-point record, named
// in the header. The file is synced before WriteFile returns.
func WriteFile(path string, b Backend, root []byte) (err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	zeros := make([]byte, PageSize)
	w.Write(zeros) // the header page, filled in last; bufio errors are sticky
	var entries []byte
	numRecords := 0
	next := PageID(0)
	put := func(data []byte) {
		entries = AppendUvarint(entries, uint64(next))
		entries = AppendUvarint(entries, uint64(len(data)))
		numRecords++
		n := recordPageCount(len(data))
		w.Write(data)
		w.Write(zeros[:n*PageSize-len(data)])
		next += PageID(n)
	}
	for _, id := range b.Records() {
		data, err := b.ReadRecord(id)
		if err != nil {
			return err
		}
		for next < id {
			put(nil)
		}
		put(data)
	}
	rootID := next
	put(root)

	dir := AppendUvarint(nil, uint64(numRecords))
	dir = append(dir, entries...)
	dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(dir))
	w.Write(dir)
	if err := w.Flush(); err != nil {
		return err
	}

	hdr := make([]byte, headerSize)
	copy(hdr, fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(next))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(numRecords))
	binary.LittleEndian.PutUint64(hdr[28:], uint64(pageOffset(next)))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(len(dir)))
	binary.LittleEndian.PutUint64(hdr[44:], uint64(rootID+1)) // InvalidPage → 0
	binary.LittleEndian.PutUint32(hdr[52:], crc32.ChecksumIEEE(hdr[:52]))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return err
	}
	return f.Sync()
}

// OpenPager opens the index file at path as a Pager whose records are all
// file-resident, and returns the header's root record (InvalidPage when
// none). The header and directory are validated (magic, format version,
// CRC-32) before any record is served. Close the pager to release the
// file.
func OpenPager(path string) (*Pager, PageID, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, InvalidPage, err
	}
	st, root, err := readHeaderAndDirectory(f)
	if err != nil {
		f.Close()
		return nil, InvalidPage, err
	}
	p := &Pager{file: f}
	p.state.Store(st)
	return p, root, nil
}

// readHeaderAndDirectory validates f's header and directory and returns
// the page table of its records, all file-resident, and the root record.
func readHeaderAndDirectory(f *os.File) (*pagerState, PageID, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, headerSize), hdr); err != nil {
		return nil, InvalidPage, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if [8]byte(hdr[:8]) != fileMagic {
		return nil, InvalidPage, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != FormatVersion {
		return nil, InvalidPage, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrVersionMismatch, v, FormatVersion)
	}
	if crc := binary.LittleEndian.Uint32(hdr[52:]); crc != crc32.ChecksumIEEE(hdr[:52]) {
		return nil, InvalidPage, fmt.Errorf("%w: header", ErrChecksum)
	}
	filePages := int64(binary.LittleEndian.Uint64(hdr[12:]))
	numRecords := binary.LittleEndian.Uint64(hdr[20:])
	dirOff := int64(binary.LittleEndian.Uint64(hdr[28:]))
	dirLen := int64(binary.LittleEndian.Uint64(hdr[36:]))
	root := PageID(binary.LittleEndian.Uint64(hdr[44:])) - 1

	fi, err := f.Stat()
	if err != nil {
		return nil, InvalidPage, err
	}
	if filePages < 0 || dirLen < 4 || dirOff < PageSize*(1+filePages) || dirOff+dirLen > fi.Size() {
		return nil, InvalidPage, fmt.Errorf("%w: directory at %d+%d beyond file size %d", ErrTruncated, dirOff, dirLen, fi.Size())
	}

	dir := make([]byte, dirLen)
	if _, err := f.ReadAt(dir, dirOff); err != nil {
		return nil, InvalidPage, fmt.Errorf("%w: directory: %v", ErrTruncated, err)
	}
	body, sum := dir[:dirLen-4], binary.LittleEndian.Uint32(dir[dirLen-4:])
	if sum != crc32.ChecksumIEEE(body) {
		return nil, InvalidPage, fmt.Errorf("%w: directory", ErrChecksum)
	}
	d := NewDecoder(body)
	if n := d.Uvarint(); n != numRecords {
		return nil, InvalidPage, fmt.Errorf("%w: directory lists %d records, header promises %d", ErrChecksum, n, numRecords)
	}
	var recLen []int64
	for i := uint64(0); i < numRecords; i++ {
		id := PageID(d.Uvarint())
		length := int(d.Uvarint())
		if d.Err() != nil {
			break
		}
		if id != PageID(len(recLen)) {
			return nil, InvalidPage, fmt.Errorf("%w: record %d at page %d, expected %d", ErrChecksum, i, id, len(recLen))
		}
		n := recordPageCount(length)
		if int64(id)+int64(n) > filePages {
			return nil, InvalidPage, fmt.Errorf("%w: record at page %d overruns %d stored pages", ErrTruncated, id, filePages)
		}
		recLen = append(recLen, int64(length))
		for j := 1; j < n; j++ {
			recLen = append(recLen, continuationPage)
		}
	}
	if err := d.Err(); err != nil {
		return nil, InvalidPage, fmt.Errorf("%w: directory: %v", ErrChecksum, err)
	}
	if root >= 0 && (int(root) >= len(recLen) || recLen[root] < 0) {
		return nil, InvalidPage, fmt.Errorf("%w: root record %d not in directory", ErrChecksum, root)
	}
	return &pagerState{recs: make([][]byte, len(recLen)), recLen: recLen}, root, nil
}

// pageOffset maps a page id to its byte offset (page 0 of data lives
// after the header page).
func pageOffset(id PageID) int64 { return PageSize * (1 + int64(id)) }

// recordPageCount returns the pages a record of the given byte length
// occupies (at least one, so empty records still have an address).
func recordPageCount(length int) int {
	n := (length + PageSize - 1) / PageSize
	if n == 0 {
		n = 1
	}
	return n
}
