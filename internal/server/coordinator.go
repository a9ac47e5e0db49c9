package server

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"

	maxbrstknn "repro"
	"repro/internal/container"
)

// cohort is one user cohort's phase-1 state, the entry of the cohort
// cache: the merged global RSk per user and, per shard, the session
// phase 2 runs on — the pinned session phase 1 ran on for an in-process
// shard, nil for an HTTP shard (which keeps its own). A NewShard server
// caches the session its coordinator's calls run on the same way, with
// no thresholds. Entries are keyed by the fleet's epoch, so a request's
// two phases never span two snapshots; a cohort that leaves the cache,
// evicted or of an epoch a mutation superseded, closes its sessions once
// no request holds it.
type cohort struct {
	rsk      []float64
	sessions []*maxbrstknn.Session
}

// close releases the cohort's sessions and so their snapshot pins.
func (co *cohort) close() {
	for _, sess := range co.sessions {
		if sess != nil {
			sess.Close()
		}
	}
}

// epoch is the fleet's publication counter: the sum of its shards'.
func (s *Server) epoch() uint64 {
	var e uint64
	for _, sh := range s.shards {
		e += sh.epoch()
	}
	return e
}

// cohort returns the query's cohort entry, running phase 1 on first
// sight. The build is detached from the requester: requests for the same
// cohort join it, and one client going away must not fail the rest. Each
// shard call stays bounded by ShardTimeout. The caller releases the
// cohort when its request is done with it.
func (s *Server) cohort(ctx context.Context, q *query) (*cohort, func(), error) {
	epoch := s.epoch()
	return s.cohorts.get(sessionKey(epoch, q.req.Users, q.req.K), epoch, func() (*cohort, error) {
		return s.phase1(context.WithoutCancel(ctx), q)
	})
}

// fanOut calls call for every shard but skip (-1 skips none) —
// concurrently when the fleet has several — and returns each shard's
// error (errors.Join reports every failing shard).
func (s *Server) fanOut(skip int, call func(i int) error) []error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		switch {
		case i == skip:
		case len(s.shards) == 1:
			errs[i] = call(i)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = call(i)
			}()
		}
	}
	wg.Wait()
	return errs
}

// objectCounts probes every shard's object count once and caches the
// counts; they pick the phase-1 primary. Concurrent first requests
// serialize on the mutex — only the very first one pays the probe.
func (s *Server) objectCounts(ctx context.Context) ([]int, error) {
	s.countsMu.Lock()
	defer s.countsMu.Unlock()
	if s.counts != nil {
		return s.counts, nil
	}
	counts := make([]int, len(s.shards))
	if err := errors.Join(s.fanOut(-1, func(i int) (err error) {
		counts[i], err = s.shards[i].objects(ctx)
		return err
	})...); err != nil {
		return nil, err
	}
	s.counts = counts
	return counts, nil
}

// phase1 runs the two-wave phase-1 scatter for a cohort. Wave 1: the
// largest shard answers unseeded. Wave 2: every other shard runs with
// each user's wave-1 k-th best score as a traversal seed — a valid lower
// bound on the global k-th best, so the seeded pruning is lossless.
// MergeTopK over every shard's list reproduces the single-index list per
// user, and ThresholdFromMerged its RSk. With one shard, wave 2 is empty.
func (s *Server) phase1(ctx context.Context, q *query) (*cohort, error) {
	counts, err := s.objectCounts(ctx)
	if err != nil {
		return nil, err
	}
	primary := 0
	for i, c := range counts {
		if c > counts[primary] {
			primary = i
		}
	}
	k := q.req.K
	phases := make([]maxbrstknn.ShardPhase1, len(s.shards))
	co := &cohort{rsk: make([]float64, len(q.req.Users)), sessions: make([]*maxbrstknn.Session, len(s.shards))}
	run := func(i int, seeds []float64) (err error) {
		phases[i], co.sessions[i], err = s.shards[i].phase1(ctx, q, seeds)
		return err
	}
	if err := run(primary, nil); err != nil {
		return nil, err
	}
	s.wave1Visited.Add(int64(phases[primary].Visited))
	s.wave1Refined.Add(int64(phases[primary].Refined))

	seeds := make([]float64, len(q.req.Users))
	for u, list := range phases[primary].PerUser {
		seeds[u] = max(maxbrstknn.ThresholdFromMerged(list, k), 0)
	}
	if err := errors.Join(s.fanOut(primary, func(i int) error { return run(i, seeds) })...); err != nil {
		return nil, err
	}
	for i := range phases {
		if i != primary {
			s.wave2Visited.Add(int64(phases[i].Visited))
			s.wave2Refined.Add(int64(phases[i].Refined))
		}
	}

	lists := make([][]maxbrstknn.RankedObject, len(phases))
	for u := range co.rsk {
		for i := range phases {
			lists[i] = phases[i].PerUser[u]
		}
		co.rsk[u] = maxbrstknn.ThresholdFromMerged(maxbrstknn.MergeTopK(k, lists...), k)
	}
	return co, nil
}

// scatter runs phase 2 under thresholds rsk (l > 0: the top-l body). The
// candidate locations are dealt round-robin and shard 0, which the deal
// gives the most, answers first; on a single-best scan the best count it
// achieved floors the other shards' scans (top-l replays need every
// positive candidate, and exhaustive scans ignore floors). The gathered
// candidates come back in the single index's scan order: |LU_ℓ|
// descending then location, or location order for an exhaustive scan.
func (s *Server) scatter(ctx context.Context, q *query, co *cohort, rsk []float64, l int) ([]maxbrstknn.ShardCandidate, error) {
	n := len(s.shards)
	parts := make([][]int, n)
	for li := range q.req.Locations {
		parts[li%n] = append(parts[li%n], li)
	}
	results := make([][]maxbrstknn.ShardCandidate, n)
	run := func(i, floor int) error {
		cands, st, err := s.shards[i].selectCands(ctx, co.sessions[i], q, rsk, parts[i], floor, l)
		if err != nil {
			return err
		}
		s.scatAssigned.Add(int64(st.Assigned))
		s.scatEvaluated.Add(int64(st.Evaluated))
		s.scatSkipped.Add(int64(st.SkippedFloor))
		results[i] = cands
		return nil
	}
	if err := run(0, 0); err != nil {
		return nil, err
	}
	floor := 0
	if l == 0 {
		for _, c := range results[0] {
			floor = max(floor, c.Result.Count())
		}
	}
	if err := errors.Join(s.fanOut(0, func(i int) error { return run(i, floor) })...); err != nil {
		return nil, err
	}
	all := slices.Concat(results...)
	exhaustive := q.req.Strategy == maxbrstknn.Exhaustive
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if !exhaustive && a.LU != b.LU {
			return a.LU > b.LU
		}
		return a.Result.LocationIndex < b.Result.LocationIndex
	})
	return all, nil
}

// replayBest is Run's reduction over candidates in scan order, core.Best's
// own (container.FirstMax): the first whose count strictly beats every
// earlier one (location -1 when none attracts a user).
func replayBest(cands []maxbrstknn.ShardCandidate) maxbrstknn.Result {
	return container.FirstMax(cands, shardResult, maxbrstknn.Result.Count, maxbrstknn.Result{LocationIndex: -1})
}

// replayTopL is RunTopL's, core.TopL's own (container.TopByCount): the
// bounded-heap offers replayed in scan order — tie eviction depends on the
// full offer sequence — then presented by count descending, location
// ascending.
func replayTopL(cands []maxbrstknn.ShardCandidate, l int) []maxbrstknn.Result {
	return container.TopByCount(cands, l, shardResult, maxbrstknn.Result.Count, func(r maxbrstknn.Result) int { return r.LocationIndex })
}

func shardResult(c maxbrstknn.ShardCandidate) maxbrstknn.Result { return c.Result }
