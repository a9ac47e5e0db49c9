package irtree

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/invfile"
	"repro/internal/storage"
	"repro/internal/textrel"
)

// errInjected is the read failure faultyBackend injects.
var errInjected = errors.New("injected read fault")

// faultyBackend wraps a record store so that its reads fail while fail is
// set. It counts the reads asked of it in reads; failAt, when set to
// n > 0, counts them down and sets fail at the n-th.
type faultyBackend struct {
	storage.Backend
	fail   atomic.Bool
	failAt atomic.Int64
	reads  atomic.Int64
}

// read counts one read and returns the error it fails with, if any.
func (f *faultyBackend) read() error {
	f.reads.Add(1)
	if f.failAt.Load() > 0 && f.failAt.Add(-1) == 0 {
		f.fail.Store(true)
	}
	if f.fail.Load() {
		return errInjected
	}
	return nil
}

func (f *faultyBackend) ReadRecord(id storage.PageID) ([]byte, error) {
	if err := f.read(); err != nil {
		return nil, err
	}
	return f.Backend.ReadRecord(id)
}

func (f *faultyBackend) ReadRecordAt(id storage.PageID, dst []byte, off int) ([]byte, error) {
	if err := f.read(); err != nil {
		return nil, err
	}
	return f.Backend.ReadRecordAt(id, dst, off)
}

// TestReadFaultsSurfaceAndClear restores a saved tree over a store whose
// reads fail on demand, two ways: the wrapper injects an error, or the
// index file is truncated under the open store, whose reads then reach
// EOF. A failing read — a cold miss's whole record, or a warm directory's
// ranged run — must reach TopK's and ReadInvSums' callers as an error
// wrapping the injected one or storage.ErrTruncated, never a panic. Once
// the fault clears, every query answers exactly as the built tree does:
// no failure left anything wrong in the decoded cache.
func TestReadFaultsSurfaceAndClear(t *testing.T) {
	built, ds, scorer := buildSmall(t, MIRTree, textrel.LM)
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 12, UL: 3, UW: 15, Area: 20, Seed: 41})
	path := filepath.Join(t.TempDir(), "tree.idx")
	if err := storage.WriteFile(path, built.Backend(), nil); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pager, _, err := storage.OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pager.Close() })
	fb := &faultyBackend{Backend: pager}
	tree, err := Restore(ds, built.Model(), fb, built.EncodeMeta(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	faults := []struct {
		want       error
		set, clear func() error
	}{
		{errInjected, func() error { fb.fail.Store(true); return nil }, func() error { fb.fail.Store(false); return nil }},
		{storage.ErrTruncated, func() error { return os.Truncate(path, 0) }, func() error { return os.WriteFile(path, file, 0o644) }},
	}

	type answer struct {
		res []Result
		rsk float64
	}
	want := make([]answer, len(us.Users))
	for ui := range us.Users {
		res, rsk, err := built.TopK(scorer, &us.Users[ui], 5)
		if err != nil {
			t.Fatal(err)
		}
		want[ui] = answer{res, rsk}
	}
	check := func(phase string) {
		t.Helper()
		for ui := range us.Users {
			res, rsk, err := tree.TopK(scorer, &us.Users[ui], 5)
			if err != nil {
				t.Fatalf("%s: user %d: %v", phase, ui, err)
			}
			if got := (answer{res, rsk}); !reflect.DeepEqual(got, want[ui]) {
				t.Fatalf("%s: user %d answered %+v, the built tree %+v", phase, ui, got, want[ui])
			}
		}
	}
	// inject runs fn under each fault in turn, clearing it afterwards.
	inject := func(fn func(want error)) {
		t.Helper()
		for _, f := range faults {
			if err := f.set(); err != nil {
				t.Fatal(err)
			}
			fn(f.want)
			if err := f.clear(); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustFail := func(phase string, want error) {
		t.Helper()
		for ui := range us.Users {
			if _, _, err := tree.TopK(scorer, &us.Users[ui], 5); !errors.Is(err, want) {
				t.Fatalf("%s: user %d: TopK error %v, want one wrapping %v", phase, ui, err, want)
			}
		}
	}

	// Cold: the root's node record cannot be read.
	inject(func(want error) { mustFail("cold fault", want) })
	check("after the cold faults")

	// Warm: every node and directory a query needs is cached, and the
	// directories are detached from the file's records, so only their
	// ranged run reads reach the store.
	root, err := tree.ReadNode(tree.RootID())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.sh.decoded.Get(root.InvID); !ok {
		t.Fatal("the root's directory is not cached after a full pass")
	}
	var scratch invfile.SumScratch
	terms := us.Users[0].Doc.Terms()
	inject(func(want error) {
		mustFail("warm fault", want)
		if _, _, err := tree.ReadInvSums(root, terms, terms, &scratch); !errors.Is(err, want) {
			t.Fatalf("warm fault: ReadInvSums error %v, want one wrapping %v", err, want)
		}
	})
	check("after the warm faults")
}
