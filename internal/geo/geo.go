// Package geo provides the 2-D geometric primitives used by the spatial
// indexes: points, axis-aligned rectangles, and the minimum / maximum
// Euclidean distance functions the paper's bound estimations rely on
// (MinSS and MaxSS in Section 5.3 are derived from MinDist and MaxDist).
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D data space. For geographic data X is
// longitude and Y is latitude; the algorithms only assume a Euclidean plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rect is a closed axis-aligned rectangle [Min.X,Max.X] × [Min.Y,Max.Y].
// A degenerate rectangle with Min == Max represents a point.
type Rect struct {
	Min, Max Point
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{Min: p, Max: p}
}

// EmptyRect returns the identity element for Union: any rectangle unioned
// with it yields that rectangle unchanged.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// IsEmpty reports whether r is the empty rectangle (contains no points).
func (r Rect) IsEmpty() bool {
	return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y
}

// Center returns the center point of r. Undefined for empty rectangles.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Width returns the extent of r along the X axis.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r along the Y axis.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r; zero for degenerate and empty rectangles.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Diagonal returns the length of the diagonal of r. The paper's dmax —
// the maximum distance between any two points in the data space — is the
// diagonal of the MBR of the whole dataset.
func (r Rect) Diagonal() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Min.Dist(r.Max)
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// UnionPoint returns the minimum bounding rectangle of r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return r.Union(RectFromPoint(p))
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return r.Min.X <= p.X && p.X <= r.Max.X && r.Min.Y <= p.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s is entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	if r.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Min.X && s.Max.X <= r.Max.X &&
		r.Min.Y <= s.Min.Y && s.Max.Y <= r.Max.Y
}

// Enlargement returns the area increase required for r to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// MinDist returns the minimum Euclidean distance between any point of r and
// any point of s; zero when the rectangles intersect.
func (r Rect) MinDist(s Rect) float64 {
	dx := axisGap(r.Min.X, r.Max.X, s.Min.X, s.Max.X)
	dy := axisGap(r.Min.Y, r.Max.Y, s.Min.Y, s.Max.Y)
	return math.Hypot(dx, dy)
}

// MaxDist returns the maximum Euclidean distance between any point of r and
// any point of s: the distance between the farthest pair of corners.
func (r Rect) MaxDist(s Rect) float64 {
	dx := math.Max(math.Abs(r.Max.X-s.Min.X), math.Abs(s.Max.X-r.Min.X))
	dy := math.Max(math.Abs(r.Max.Y-s.Min.Y), math.Abs(s.Max.Y-r.Min.Y))
	return math.Hypot(dx, dy)
}

// axisGap returns the separation of intervals [aLo,aHi] and [bLo,bHi] along
// one axis, or 0 when they overlap.
func axisGap(aLo, aHi, bLo, bHi float64) float64 {
	switch {
	case aHi < bLo:
		return bLo - aHi
	case bHi < aLo:
		return aLo - bHi
	default:
		return 0
	}
}

// MBR returns the minimum bounding rectangle of the given points.
func MBR(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.UnionPoint(p)
	}
	return r
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4f,%.4f)", p.X, p.Y) }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Min, r.Max)
}
