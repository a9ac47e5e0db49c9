package maxbrstknn

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/invfile"
	"repro/internal/vocab"
)

// TestDecodedCacheChargesDirectories: the decoded cache holds each
// posting record's term directory and never a private copy of the record.
// On a built index the directory indexes the pager's own bytes; on a
// loaded one it is detached from the record read from the file and reads
// its runs by range. Either way a directory is charged its arrays alone,
// and after every node and record has been read the cache holds less than
// the records themselves.
func TestDecodedCacheChargesDirectories(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	for range 2000 {
		kws := make([]string, 1+rng.Intn(6))
		for i := range kws {
			kws[i] = fmt.Sprintf("w%d", rng.Intn(300))
		}
		b.AddObject(rng.Float64()*100, rng.Float64()*100, kws...)
	}
	built, err := b.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "charge.mxbr")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWithOptions(path, LoadOptions{DecodedCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	terms := []vocab.TermID{0, 1, 2, 3}
	for _, c := range []struct {
		name string
		idx  *Index
	}{{"built", built}, {"loaded", loaded}} {
		tree := c.idx.snap.Load().tree
		var scratch invfile.SumScratch
		nodes, checked, recordBytes := 0, 0, int64(0)
		var walk func(id int32)
		walk = func(id int32) {
			node, err := tree.ReadNode(id)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := tree.Backend().ReadRecord(node.InvID)
			if err != nil {
				t.Fatal(err)
			}
			nodes++
			recordBytes += int64(len(buf))
			before := c.idx.CacheStats()
			if _, _, err := tree.ReadInvSums(node, terms, terms, &scratch); err != nil {
				t.Fatal(err)
			}
			after := c.idx.CacheStats()
			if after.DecodedEntries > before.DecodedEntries && after.DecodedEvictions == before.DecodedEvictions {
				if want, got := invfile.DirBytes(buf), after.DecodedBytes-before.DecodedBytes; got != want {
					t.Fatalf("%s: a %d-byte record's directory is charged %d, want %d", c.name, len(buf), got, want)
				}
				checked++
			}
			if !node.Leaf {
				for _, e := range node.Entries {
					walk(e.Child)
				}
			}
		}
		walk(tree.RootID())
		if checked == 0 {
			t.Fatalf("%s: no record's directory was cached", c.name)
		}
		st := c.idx.CacheStats()
		if st.DecodedEntries != 2*nodes || st.DecodedEvictions != 0 {
			t.Fatalf("%s: %d entries and %d evictions for %d nodes, want every node and directory cached", c.name, st.DecodedEntries, st.DecodedEvictions, nodes)
		}
		if st.DecodedBytes >= recordBytes {
			t.Fatalf("%s: the decoded cache holds %d bytes for %d bytes of records; it should hold nodes and directories only", c.name, st.DecodedBytes, recordBytes)
		}
		t.Logf("%s: %d nodes, decoded cache %d bytes, posting records %d bytes", c.name, nodes, st.DecodedBytes, recordBytes)
	}
}
