package server

// The wire protocol between the coordinator and its shard servers. Two
// internal endpoints carry the scatter-gather pipeline: /shard/phase1
// answers the joint top-k over the shard's objects (optionally seeded
// with coordinator-forwarded score bounds), and /shard/select evaluates
// the shard's assigned candidate locations under coordinator-supplied
// global thresholds. Threshold and seed vectors are cohort-indexed and
// strictly finite on the wire: the poison value for covered users is
// maxbrstknn.Cover's math.MaxFloat64, which no achievable score reaches.

// Phase1Request is the body of /shard/phase1.
type Phase1Request struct {
	Users []UserSpec `json:"users"`
	K     int        `json:"k"`
	// Seeds[u], when present, is a lower bound on user u's global k-th
	// best score from shards that already answered; the shard prunes
	// below it, losslessly for the merged top-k. Omitted = no bounds.
	Seeds    []float64    `json:"seeds,omitempty"`
	Parallel ParallelSpec `json:"parallel,omitempty"`
}

// Phase1Response is one shard's joint top-k answer: each cohort user's
// local top-k over the shard's objects in global object ids (score
// descending, ascending-id ties), plus the shard's work counters.
// Visited counts tree nodes expanded; Refined counts candidates scored
// during refinement — the observable bound forwarding shrinks (a seeded
// threshold truncates each descending-UB candidate scan earlier).
type Phase1Response struct {
	PerUser [][]RankedPayload `json:"per_user"`
	Visited int               `json:"visited"`
	Refined int               `json:"refined"`
}

// SelectRequest is the body of /shard/select.
type SelectRequest struct {
	// Query is the full query; its strategy picks the evaluation body
	// (exact/approx/exhaustive — user-indexed cannot be scattered) and
	// its user cohort must be the deployment-wide cohort, identical and
	// identically ordered on every shard.
	Query QueryRequest `json:"query"`
	// RSK is the cohort-indexed global threshold vector (phase 1's
	// merged k-th best scores).
	RSK []float64 `json:"rsk"`
	// Assigned lists the candidate-location indexes this shard evaluates.
	Assigned []int `json:"assigned"`
	// Floor is the forwarded bound: the best count some earlier shard
	// already achieved. Single-best requests skip candidates that cannot
	// beat it; top-l requests ignore it (the replayed heap needs every
	// positive candidate).
	Floor int `json:"floor"`
	// List selects the top-l evaluation body instead of the single-best
	// one.
	List bool `json:"list"`
	// L is the request's l for a List scan: the shard skips a location
	// once l evaluated ones beat its |LU_ℓ| strictly. 0 skips nothing.
	L int `json:"l,omitempty"`
}

// ShardCandidatePayload is one evaluated candidate location: the result
// in wire form plus |LU_ℓ|, the qualifying-user count that orders the
// scan the coordinator replays.
type ShardCandidatePayload struct {
	Result ResultPayload `json:"result"`
	LU     int           `json:"lu"`
}

// ScatterStatsPayload is the wire form of maxbrstknn.ScatterStats.
type ScatterStatsPayload struct {
	Assigned     int `json:"assigned"`
	Evaluated    int `json:"evaluated"`
	SkippedFloor int `json:"skipped_floor"`
}

// SelectResponse is the body of a /shard/select answer: every evaluated
// candidate with a positive qualifying count (in the shard's scan order)
// and the work counters.
type SelectResponse struct {
	Candidates []ShardCandidatePayload `json:"candidates"`
	Stats      ScatterStatsPayload     `json:"stats"`
}
