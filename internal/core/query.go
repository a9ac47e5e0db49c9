// Package core implements the paper's contribution: the MaxBRSTkNN query
// (Definition 1). Given candidate locations L and candidate keywords W, it
// selects a location ℓ and keyword set W' (|W'| ≤ ws) maximizing the number
// of users who would have the new object ox among their top-k
// spatial-textually relevant objects.
//
// Phase 1 (Engine.Prepare) computes every user's top-k threshold; phase 2
// is one driver, Engine.Scan, whose mode mirrors Sections 4–6:
//
//   - ScanExhaustive: every 〈ℓ, combination〉 tuple is evaluated
//     (Section 4).
//   - ScanBest with KeywordsExact: the pruned search of Algorithm 3 with
//     the exact keyword selection of Algorithm 4 (Section 6.2.2).
//   - ScanBest with KeywordsApprox: Algorithm 3 with the greedy
//     maximum-coverage keyword selection (Section 6.2.1), whose count is
//     at most KeywordsExact's.
//   - ScanTopL: Algorithm 3 feeding a ranked shortlist of l locations.
//
// The user-indexed variant of Section 7 lives alongside in this package
// (see userindexed.go) and plugs the MIUR-tree's hierarchical pruning into
// the same per-location keyword selection.
package core

import (
	"fmt"
	"slices"

	"repro/internal/geo"
	"repro/internal/vocab"
)

// Query is a MaxBRSTkNN query q(ox, L, W, ws, k).
type Query struct {
	// OxDoc is the existing text description of the object ox (often
	// empty). Selected keywords extend it per Definition 1.
	OxDoc vocab.Doc
	// Locations is the candidate location set L.
	Locations []geo.Point
	// Keywords is the candidate keyword set W.
	Keywords []vocab.TermID
	// WS is the maximum number of keywords to select (ws ≤ |W|).
	WS int
	// K is the top-k depth defining the reverse relationship.
	K int
}

// Validate reports whether the query is well-formed.
func (q Query) Validate() error {
	if len(q.Locations) == 0 {
		return fmt.Errorf("core: query needs at least one candidate location")
	}
	if q.WS < 0 {
		return fmt.Errorf("core: ws must be non-negative")
	}
	if q.WS > len(q.Keywords) {
		return fmt.Errorf("core: ws (%d) exceeds |W| (%d)", q.WS, len(q.Keywords))
	}
	if q.K <= 0 {
		return fmt.Errorf("core: k must be positive")
	}
	return nil
}

// Selection is a MaxBRSTkNN answer: the chosen location, keyword set, and
// the users for whom ox becomes a top-k object.
type Selection struct {
	// LocIndex is the index into Query.Locations (-1 when no location
	// attracts any user).
	LocIndex int
	// Location is Query.Locations[LocIndex] (zero when LocIndex is -1).
	Location geo.Point
	// Keywords is the selected W' in ascending term order (may be empty:
	// the location alone can suffice).
	Keywords []vocab.TermID
	// Users lists the BRSTkNN user IDs in ascending order.
	Users []int32
}

// Count returns |BRSTkNN|, the maximized quantity.
func (s Selection) Count() int { return len(s.Users) }

// normalize sorts the keyword and user lists for deterministic output.
func (s *Selection) normalize() {
	slices.Sort(s.Keywords)
	slices.Sort(s.Users)
}

// KeywordMethod selects the keyword-set search strategy of Section 6.2.
type KeywordMethod int

const (
	// KeywordsExact enumerates candidate combinations with the pruning of
	// Algorithm 4.
	KeywordsExact KeywordMethod = iota
	// KeywordsApprox runs the greedy maximum-coverage approximation.
	KeywordsApprox
)

// String implements fmt.Stringer.
func (m KeywordMethod) String() string {
	if m == KeywordsApprox {
		return "approx"
	}
	return "exact"
}
