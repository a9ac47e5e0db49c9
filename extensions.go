package maxbrstknn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// RunTopL returns up to l ranked selections — the best candidate
// locations with their best keyword sets, by descending audience size
// (the spatial-textual analogue of ℓ-MaxBRkNN). Only the Exact and Approx
// strategies are supported, behaving as in Run; Exhaustive and
// UserIndexed return an explicit error rather than silently downgrading
// to Exact. l must be positive.
func (s *Session) RunTopL(req Request, l int) ([]Result, error) {
	spec, err := scanSpec("RunTopL", req, true)
	if err != nil {
		return nil, err
	}
	q, err := s.open("RunTopL", req)
	if err != nil {
		return nil, err
	}
	spec.Mode, spec.L = core.ScanTopL, l
	cands, _, err := s.engine.Scan(q, s.th, spec)
	if err != nil {
		return nil, err
	}
	sels := core.TopL(cands, l)
	out := make([]Result, len(sels))
	for i, sel := range sels {
		out[i] = s.buildResult(req, sel, core.UserIndexStats{})
	}
	return out, nil
}

// RunMultiple greedily places m objects to maximize the number of
// distinct users covered (each placement gets its own location and
// keyword set; covered users are excluded from later rounds): Cover over
// the session's thresholds, each round Run's scan under thresholds whose
// covered users Cover poisoned with math.MaxFloat64. Only the Exact and
// Approx strategies are supported; Exhaustive and UserIndexed return an
// explicit error rather than silently downgrading to Exact. m must be
// positive.
func (s *Session) RunMultiple(req Request, m int) ([]Result, error) {
	spec, err := scanSpec("RunMultiple", req, true)
	if err != nil {
		return nil, err
	}
	q, err := s.open("RunMultiple", req)
	if err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("maxbrstknn: m must be positive")
	}
	return Cover(m, s.th.RSk, func(rsk []float64) (Result, error) {
		th, err := s.engine.NewThresholds(s.k, rsk)
		if err != nil {
			return Result{}, err
		}
		cands, _, err := s.engine.Scan(q, th, spec)
		if err != nil {
			return Result{}, err
		}
		return s.buildResult(req, core.Best(cands), core.UserIndexStats{}), nil
	})
}

// Cover is the greedy multi-placement every multi-object answer runs — the
// multi-service extension the FILM line of work motivates (Section 2.1).
// best answers one single-best round under per-user thresholds indexed
// like rsk; Cover calls it up to m times, stopping at the first round
// that wins nobody. Between rounds every user the last round won is
// poisoned with math.MaxFloat64, the one poison: no achievable score
// reaches it, so every bound and exact test skips the user, and JSON can
// carry it to a shard. rsk itself is not modified, and won ids outside it
// are ignored. Only when every round is a best answer (Exact,
// UserIndexed or Exhaustive, which the oracle holds to the best count)
// does the result have greedy maximum coverage's (1−1/e) guarantee
// against the best m placements; Approx rounds carry none. With no
// winning round it is empty, never nil.
func Cover(m int, rsk []float64, best func(rsk []float64) (Result, error)) ([]Result, error) {
	poisoned := slices.Clone(rsk)
	out := []Result{}
	for range m {
		r, err := best(poisoned)
		if err != nil {
			return nil, err
		}
		if r.Count() == 0 {
			break // nobody left to win
		}
		out = append(out, r)
		for _, u := range r.UserIDs {
			if u >= 0 && u < len(poisoned) {
				poisoned[u] = math.MaxFloat64
			}
		}
	}
	return out, nil
}
