package maxbrstknn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// TestBuildIndependentOfWorkers: Build composes the index a level at a
// time on GOMAXPROCS goroutines and writes its records in post-order, so
// the saved file of an index five levels deep (5,000 objects at fanout 8)
// is the same under GOMAXPROCS 1 and 4 — built, compacted after deletes,
// and as a shard, which cannot be saved and is compared record by record —
// and is the file the single-goroutine build wrote before, pinned by
// sha256. The pins moved when the Language Model's postings and maxima
// became increments without the smoothing floor.
func TestBuildIndependentOfWorkers(t *testing.T) {
	want := map[string]string{
		"built":     "ba72acddd0f728cabc53d9105cb36fe70866b989c8b64916d99aff8d44a8cd95",
		"compacted": "962db63a87e40d8eb11069b1495ee27e176461d67ad65d5ec1aa337350f8e5d5",
		"shard":     "117521287212a8dc69fc451f3be9caec1616cf442d1278a3bf3e8601e20543e0",
	}
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 5000, VocabSize: 400, MeanTags: 5, NumCluster: 8, Zipf: 1.1, Seed: 11,
	})
	opts := Options{Fanout: 8}
	dir := t.TempDir()
	save := func(name string, ix *Index) []byte {
		t.Helper()
		path := filepath.Join(dir, name+".mxbr")
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	files := func(procs int) map[string][]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		idx, err := replay(ds).Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		if h := idx.snap.Load().tree.Height(); h < 3 {
			t.Fatalf("the index is %d levels deep, want at least 3", h)
		}
		out := map[string][]byte{"built": save("built", idx)}

		for id := 0; id < len(ds.Objects); id += 7 {
			if err := idx.DeleteObject(id); err != nil {
				t.Fatal(err)
			}
		}
		compacted, err := idx.Compact()
		if err != nil {
			t.Fatal(err)
		}
		defer compacted.Close()
		out["compacted"] = save("compacted", compacted)

		sb := NewShardBuilder(idx.FrozenCorpus())
		for id := 0; id < len(ds.Objects); id += 2 {
			o := ds.Objects[id]
			if err := sb.AddObject(id, o.Loc.X, o.Loc.Y, docKeywords(ds.Vocab, o.Doc)...); err != nil {
				t.Fatal(err)
			}
		}
		shard, err := sb.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer shard.Close()
		out["shard"] = storedRecords(t, shard.Index)
		return out
	}
	one, four := files(1), files(4)
	for name, raw := range one {
		if !bytes.Equal(raw, four[name]) {
			t.Errorf("%s: the bytes stored under GOMAXPROCS 1 (%d) differ from GOMAXPROCS 4's (%d)", name, len(raw), len(four[name]))
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: sha256 %s, want %s", name, got, want[name])
		}
	}
}

// storedRecords is every record of ix's store, in address order, each
// after its address and length.
func storedRecords(t *testing.T, ix *Index) []byte {
	t.Helper()
	store := ix.snap.Load().tree.Backend()
	var out []byte
	for _, id := range store.Records() {
		rec, err := store.ReadRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(id)), uint64(len(rec)))
		out = append(out, rec...)
	}
	return out
}
