// Package server implements the concurrent HTTP/JSON query-serving layer:
// one long-lived process answers the public query API over an index
// (built in memory or loaded from a .mxbr file) or over a fleet of shard
// servers, amortizing the index cost the way the paper's provider
// scenario assumes.
//
// Endpoints:
//
//	POST /maxbrstknn  — one MaxBRSTkNN query (per-request strategy and
//	                    parallelism)
//	POST /topl        — the ranked top-L candidate locations
//	POST /multiple    — m greedy placements covering distinct users
//	POST /topk        — one user's top-k objects
//	POST /add         — insert one object into the live index
//	POST /delete      — remove one object by id
//	POST /update      — replace one object (new id, one atomic epoch)
//	GET  /stats       — I/O ledger, caches, ingest epoch, scatter-gather
//	                    counters, in-flight
//	GET  /healthz     — liveness probe
//
// There is one serving path. A Server answers the query endpoints as a
// coordinator over shards: New serves an index as a fleet of one
// in-process shard, plus the mutation endpoints; NewCoordinator serves a
// fleet of NewShard servers reached over HTTP (the wire protocol of
// shardwire.go), whose indexes are immutable. Phase 1 (each cohort
// user's RSk, from the joint top-k) is merged across the shards once per
// cohort and cached in an LRU keyed by the fleet's epoch, the user set
// and k, so repeated queries from a cohort pay only for phase 2
// (candidate selection). Mutations publish copy-on-write snapshots and
// advance the epoch: a query in flight during an /add finishes on the
// snapshot its cohort pinned, and the next request sees the new epoch.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	maxbrstknn "repro"
)

// UserSpec is the wire form of one user.
type UserSpec struct {
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords,omitempty"`
}

// ParallelSpec is the wire form of maxbrstknn.ParallelOptions.
type ParallelSpec struct {
	Workers int `json:"workers,omitempty"`
	Groups  int `json:"groups,omitempty"`
}

// QueryRequest is the body of /maxbrstknn, /topl and /multiple.
type QueryRequest struct {
	Users            []UserSpec   `json:"users"`
	Locations        [][2]float64 `json:"locations"`
	Keywords         []string     `json:"keywords"`
	MaxKeywords      int          `json:"max_keywords"`
	K                int          `json:"k"`
	ExistingKeywords []string     `json:"existing_keywords,omitempty"`
	// Strategy is "exact" (default), "approx", "exhaustive" or
	// "user-indexed". /topl and /multiple accept only the first two.
	Strategy string       `json:"strategy,omitempty"`
	Parallel ParallelSpec `json:"parallel,omitempty"`
	// L is the shortlist length for /topl (default 1).
	L int `json:"l,omitempty"`
	// M is the number of placements for /multiple (default 1).
	M int `json:"m,omitempty"`
}

// AddRequest is the body of /add.
type AddRequest struct {
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords,omitempty"`
}

// DeleteRequest is the body of /delete.
type DeleteRequest struct {
	ID int `json:"id"`
}

// UpdateRequest is the body of /update.
type UpdateRequest struct {
	ID       int      `json:"id"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords,omitempty"`
}

// MutationResponse is the body every mutation endpoint answers with: the
// object id the mutation concerns (the inserted id for /add, the
// replacement's fresh id for /update, the removed id for /delete) and
// the index state after publication.
type MutationResponse struct {
	ID          int    `json:"id"`
	Epoch       uint64 `json:"epoch"`
	LiveObjects int    `json:"live_objects"`
}

// TopKRequest is the body of /topk.
type TopKRequest struct {
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords,omitempty"`
	K        int      `json:"k"`
}

// ParseStrategy maps a wire strategy name to the library constant.
func ParseStrategy(s string) (maxbrstknn.Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "exact":
		return maxbrstknn.Exact, nil
	case "approx":
		return maxbrstknn.Approx, nil
	case "exhaustive":
		return maxbrstknn.Exhaustive, nil
	case "user-indexed", "userindexed":
		return maxbrstknn.UserIndexed, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}

// ToRequest converts the wire query into a library Request, rejecting
// what no index could answer — an unknown strategy, no users, no
// locations, k or max_keywords out of range — before any work is spent.
func (q *QueryRequest) ToRequest() (maxbrstknn.Request, error) {
	strat, err := ParseStrategy(q.Strategy)
	if err != nil {
		return maxbrstknn.Request{}, err
	}
	switch {
	case len(q.Users) == 0:
		return maxbrstknn.Request{}, errors.New("maxbrstknn: at least one user required")
	case len(q.Locations) == 0:
		return maxbrstknn.Request{}, errors.New("maxbrstknn: at least one candidate location required")
	case q.K <= 0:
		return maxbrstknn.Request{}, errors.New("maxbrstknn: k must be positive")
	case q.MaxKeywords < 0:
		return maxbrstknn.Request{}, errors.New("maxbrstknn: max_keywords must be non-negative")
	}
	return maxbrstknn.Request{
		Users:            userSpecs(q.Users),
		Locations:        q.Locations,
		Keywords:         q.Keywords,
		MaxKeywords:      q.MaxKeywords,
		K:                q.K,
		ExistingKeywords: q.ExistingKeywords,
		Strategy:         strat,
		Parallel:         parallelOptions(q.Parallel),
	}, nil
}

// userSpecs converts wire users to the library's.
func userSpecs(wire []UserSpec) []maxbrstknn.UserSpec {
	users := make([]maxbrstknn.UserSpec, len(wire))
	for i, u := range wire {
		users[i] = maxbrstknn.UserSpec{X: u.X, Y: u.Y, Keywords: u.Keywords}
	}
	return users
}

// parallelOptions converts a wire parallelism setting to the library's.
func parallelOptions(p ParallelSpec) maxbrstknn.ParallelOptions {
	return maxbrstknn.ParallelOptions{Workers: p.Workers, Groups: p.Groups}
}

// PruningPayload is the wire form of maxbrstknn.PruningStats.
type PruningPayload struct {
	TotalUsers    int     `json:"total_users"`
	ResolvedUsers int     `json:"resolved_users"`
	PrunedPercent float64 `json:"pruned_percent"`
}

// ResultPayload is the wire form of one maxbrstknn.Result.
type ResultPayload struct {
	LocationIndex int             `json:"location_index"`
	Location      [2]float64      `json:"location"`
	Keywords      []string        `json:"keywords"`
	UserIDs       []int           `json:"user_ids"`
	Count         int             `json:"count"`
	Pruning       *PruningPayload `json:"pruning,omitempty"`
}

// PayloadFromResult converts a library Result to its wire form.
func PayloadFromResult(r maxbrstknn.Result) ResultPayload {
	p := ResultPayload{
		LocationIndex: r.LocationIndex,
		Location:      r.Location,
		Keywords:      r.Keywords,
		UserIDs:       r.UserIDs,
		Count:         r.Count(),
	}
	if r.Stats.TotalUsers > 0 {
		p.Pruning = &PruningPayload{
			TotalUsers:    r.Stats.TotalUsers,
			ResolvedUsers: r.Stats.ResolvedUsers,
			PrunedPercent: r.Stats.PrunedPercent,
		}
	}
	return p
}

// resultFromPayload converts a shard's wire candidate back to a library
// Result. Scattered candidates never carry Section 7 pruning statistics
// (only a whole index answers user-indexed queries), so none are read.
func resultFromPayload(p ResultPayload) maxbrstknn.Result {
	return maxbrstknn.Result{LocationIndex: p.LocationIndex, Location: p.Location, Keywords: p.Keywords, UserIDs: p.UserIDs}
}

// ResultJSON returns exactly the bytes the server writes for one Result —
// the reference for the byte-identity guarantee: an HTTP round-trip must
// return ResultJSON(directLibraryResult) verbatim.
func ResultJSON(r maxbrstknn.Result) ([]byte, error) {
	return appendNewline(json.Marshal(PayloadFromResult(r)))
}

// ResultsJSON is ResultJSON for the list responses of /topl and /multiple.
func ResultsJSON(rs []maxbrstknn.Result) ([]byte, error) {
	payloads := make([]ResultPayload, len(rs))
	for i, r := range rs {
		payloads[i] = PayloadFromResult(r)
	}
	return appendNewline(json.Marshal(struct {
		Results []ResultPayload `json:"results"`
	}{payloads}))
}

// RankedPayload is the wire form of one top-k entry.
type RankedPayload struct {
	ObjectID int     `json:"object_id"`
	Score    float64 `json:"score"`
}

// rankedPayloads converts a ranked list to its wire form.
func rankedPayloads(rs []maxbrstknn.RankedObject) []RankedPayload {
	out := make([]RankedPayload, len(rs))
	for i, r := range rs {
		out[i] = RankedPayload{ObjectID: r.ObjectID, Score: r.Score}
	}
	return out
}

// rankedObjects converts a wire ranked list back to the library's.
func rankedObjects(ps []RankedPayload) []maxbrstknn.RankedObject {
	out := make([]maxbrstknn.RankedObject, len(ps))
	for i, p := range ps {
		out[i] = maxbrstknn.RankedObject{ObjectID: p.ObjectID, Score: p.Score}
	}
	return out
}

// topKResponse is the body of a /topk answer.
type topKResponse struct {
	Results []RankedPayload `json:"results"`
}

// TopKJSON returns exactly the bytes the server writes for a /topk answer.
func TopKJSON(rs []maxbrstknn.RankedObject) ([]byte, error) {
	return appendNewline(json.Marshal(topKResponse{rankedPayloads(rs)}))
}

// appendNewline matches json.Encoder's trailing newline so helper output
// and handler output stay byte-identical.
func appendNewline(b []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
