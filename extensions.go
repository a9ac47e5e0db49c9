package maxbrstknn

import (
	"fmt"

	"repro/internal/core"
)

// RunTopL returns up to l ranked selections — the best candidate
// locations with their best keyword sets, by descending audience size
// (the spatial-textual analogue of ℓ-MaxBRkNN). Only the Exact and Approx
// strategies are supported, behaving as in Run; Exhaustive and
// UserIndexed return an explicit error rather than silently downgrading
// to Exact. l must be positive.
func (s *Session) RunTopL(req Request, l int) ([]Result, error) {
	method, err := extensionMethod("RunTopL", req.Strategy)
	if err != nil {
		return nil, err
	}
	q, err := s.open("RunTopL", req)
	if err != nil {
		return nil, err
	}
	cands, _, err := s.engine.Scan(q, s.th, core.ScanSpec{
		Method: method, Mode: core.ScanTopL, L: l, Workers: req.Parallel.Workers,
	})
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
// keyword set; covered users are excluded from later rounds). Only the
// Exact and Approx strategies are supported; Exhaustive and UserIndexed
// return an explicit error rather than silently downgrading to Exact.
func (s *Session) RunMultiple(req Request, m int) ([]Result, error) {
	method, err := extensionMethod("RunMultiple", req.Strategy)
	if err != nil {
		return nil, err
	}
	q, err := s.open("RunMultiple", req)
	if err != nil {
		return nil, err
	}
	sels, err := s.engine.SelectMultiple(q, s.th, method, req.Parallel.Workers, m)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(sels))
	for i, sel := range sels {
		out[i] = s.buildResult(req, sel, core.UserIndexStats{})
	}
	return out, nil
}

// extensionMethod maps a strategy to the keyword-selection method the
// extension queries accept, rejecting the strategies they cannot honor.
func extensionMethod(op string, strat Strategy) (core.KeywordMethod, error) {
	switch strat {
	case Approx:
		return core.KeywordsApprox, nil
	case Exact:
		return core.KeywordsExact, nil
	default:
		return 0, fmt.Errorf("maxbrstknn: %s does not support the %s strategy (use Exact or Approx)", op, strat)
	}
}
