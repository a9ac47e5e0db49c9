// Package shardplan computes deterministic spatial shard plans: the
// sort-tile partition of a dataset's objects into N contiguous regions
// (the same primitive the grouped joint top-k uses for its super-user
// groups), and the per-shard builds the sharded serving deployment runs.
//
// A plan is a pure function of (dataset, shard count): every process
// that reads the same objects computes byte-identical shards, so the
// coordinator and the shard servers never exchange a plan file — each
// shard server re-derives the plan from the dataset directory and builds
// only its own slice.
package shardplan

import (
	"fmt"
	"sort"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/indexutil"
)

// Plan is one deterministic sharding of a dataset's objects.
type Plan struct {
	// Shards is the shard count N.
	Shards int
	// Objects[s] lists shard s's global object ids, ascending.
	Objects [][]int
}

// Split partitions ds's objects into shards spatial groups with the
// sort-tile pass of geo.PartitionPoints. Every object lands in exactly
// one shard and no shard is empty; asking for more shards than objects
// is an error. The result depends only on the object locations and ids,
// so re-running Split anywhere reproduces it exactly.
func Split(ds *dataset.Dataset, shards int) (*Plan, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shardplan: shard count must be positive, got %d", shards)
	}
	if shards > len(ds.Objects) {
		return nil, fmt.Errorf("shardplan: %d shards for %d objects", shards, len(ds.Objects))
	}
	pts := make([]geo.Point, len(ds.Objects))
	for i := range ds.Objects {
		pts[i] = ds.Objects[i].Loc
	}
	groups := geo.PartitionPoints(pts, shards)
	p := &Plan{Shards: len(groups), Objects: make([][]int, len(groups))}
	for s, g := range groups {
		ids := append([]int(nil), g...)
		sort.Ints(ids)
		p.Objects[s] = ids
	}
	return p, nil
}

// BuildShard replays shard s's objects into a facade ShardBuilder under
// the frozen context fc and builds the shard index. Keyword strings are
// reconstructed through the one shared replay path (indexutil), so the
// shard's documents match the global build term for term.
func BuildShard(ds *dataset.Dataset, p *Plan, s int, fc maxbrstknn.FrozenCorpus, opts maxbrstknn.Options) (*maxbrstknn.ShardIndex, error) {
	if s < 0 || s >= p.Shards {
		return nil, fmt.Errorf("shardplan: shard %d of %d", s, p.Shards)
	}
	sb := maxbrstknn.NewShardBuilder(fc)
	for _, gid := range p.Objects[s] {
		o := &ds.Objects[gid]
		if err := sb.AddObject(gid, o.Loc.X, o.Loc.Y, indexutil.KeywordStrings(ds.Vocab, o.Doc)...); err != nil {
			return nil, err
		}
	}
	return sb.Build(opts)
}
