package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !approx(got, tt.want) {
				t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		cl := func(v float64) float64 { return math.Mod(v, 1e6) }
		a, b := Point{cl(ax), cl(ay)}, Point{cl(bx), cl(by)}
		return approx(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty rect area = %v, want 0", e.Area())
	}
	r := Rect{Point{0, 0}, Point{1, 1}}
	if got := e.Union(r); got != r {
		t.Errorf("empty ∪ r = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r ∪ empty = %v, want %v", got, r)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Point{1, 2}, Point{4, 6}}
	if got := r.Width(); !approx(got, 3) {
		t.Errorf("Width = %v, want 3", got)
	}
	if got := r.Height(); !approx(got, 4) {
		t.Errorf("Height = %v, want 4", got)
	}
	if got := r.Area(); !approx(got, 12) {
		t.Errorf("Area = %v, want 12", got)
	}
	if got := r.Diagonal(); !approx(got, 5) {
		t.Errorf("Diagonal = %v, want 5", got)
	}
	if got := r.Center(); got != (Point{2.5, 4}) {
		t.Errorf("Center = %v, want (2.5,4)", got)
	}
}

func TestUnion(t *testing.T) {
	a := Rect{Point{0, 0}, Point{2, 2}}
	b := Rect{Point{1, 1}, Point{3, 4}}
	want := Rect{Point{0, 0}, Point{3, 4}}
	if got := a.Union(b); got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
}

func TestUnionCommutativeAndContaining(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a := Rect{Point{math.Min(ax, bx), math.Min(ay, by)}, Point{math.Max(ax, bx), math.Max(ay, by)}}
		b := Rect{Point{math.Min(cx, dx), math.Min(cy, dy)}, Point{math.Max(cx, dx), math.Max(cy, dy)}}
		u := a.Union(b)
		return u == b.Union(a) && u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	r := Rect{Point{0, 0}, Point{2, 2}}
	for _, p := range []Point{{0, 0}, {2, 2}, {1, 1}, {0, 2}} {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	for _, p := range []Point{{-0.1, 1}, {2.1, 1}, {1, -0.1}, {1, 2.1}} {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestContainsRect(t *testing.T) {
	outer := Rect{Point{0, 0}, Point{10, 10}}
	if !outer.ContainsRect(Rect{Point{1, 1}, Point{2, 2}}) {
		t.Error("should contain inner rect")
	}
	if !outer.ContainsRect(outer) {
		t.Error("should contain itself")
	}
	if outer.ContainsRect(Rect{Point{5, 5}, Point{11, 6}}) {
		t.Error("should not contain partially-outside rect")
	}
	if !outer.ContainsRect(EmptyRect()) {
		t.Error("every rect contains the empty rect")
	}
	if EmptyRect().ContainsRect(outer) {
		t.Error("empty rect contains nothing")
	}
}

func TestMinDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Rect
		want float64
	}{
		{"overlapping", Rect{Point{0, 0}, Point{2, 2}}, Rect{Point{1, 1}, Point{3, 3}}, 0},
		{"x gap", Rect{Point{0, 0}, Point{1, 1}}, Rect{Point{3, 0}, Point{4, 1}}, 2},
		{"y gap", Rect{Point{0, 0}, Point{1, 1}}, Rect{Point{0, 4}, Point{1, 5}}, 3},
		{"diagonal gap", Rect{Point{0, 0}, Point{1, 1}}, Rect{Point{4, 5}, Point{6, 7}}, 5},
		{"point to rect", RectFromPoint(Point{0, 0}), Rect{Point{3, 4}, Point{5, 6}}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.MinDist(tt.b); !approx(got, tt.want) {
				t.Errorf("MinDist = %v, want %v", got, tt.want)
			}
			if got := tt.b.MinDist(tt.a); !approx(got, tt.want) {
				t.Errorf("MinDist (reversed) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMaxDist(t *testing.T) {
	a := Rect{Point{0, 0}, Point{1, 1}}
	b := Rect{Point{2, 2}, Point{3, 3}}
	// farthest corners: (0,0) and (3,3)
	if got := a.MaxDist(b); !approx(got, 3*math.Sqrt2) {
		t.Errorf("MaxDist = %v, want %v", got, 3*math.Sqrt2)
	}
	// identical rects: diagonal
	if got := a.MaxDist(a); !approx(got, math.Sqrt2) {
		t.Errorf("MaxDist(self) = %v, want sqrt2", got)
	}
	// degenerate point rects: plain distance
	p, q := RectFromPoint(Point{0, 0}), RectFromPoint(Point{3, 4})
	if got := p.MaxDist(q); !approx(got, 5) {
		t.Errorf("MaxDist points = %v, want 5", got)
	}
}

// MinDist ≤ dist(center_a, center_b) ≤ MaxDist, and both bounds must hold
// for every pair of contained points — the property Lemma 2 depends on.
func TestMinMaxDistBoundsProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64, fx, fy, gx, gy float64) bool {
		// clamp generated values into a sane range
		cl := func(v float64) float64 { return math.Mod(math.Abs(v), 100) }
		a := Rect{Point{cl(ax), cl(ay)}, Point{cl(ax) + cl(bx), cl(ay) + cl(by)}}
		b := Rect{Point{cl(cx), cl(cy)}, Point{cl(cx) + cl(dx), cl(cy) + cl(dy)}}
		// a point inside each rect, by fractional interpolation
		frac := func(v float64) float64 { return math.Mod(math.Abs(v), 1) }
		pa := Point{a.Min.X + frac(fx)*a.Width(), a.Min.Y + frac(fy)*a.Height()}
		pb := Point{b.Min.X + frac(gx)*b.Width(), b.Min.Y + frac(gy)*b.Height()}
		d := pa.Dist(pb)
		return a.MinDist(b) <= d+1e-9 && d <= a.MaxDist(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEnlargement(t *testing.T) {
	r := Rect{Point{0, 0}, Point{2, 2}}
	if got := r.Enlargement(Rect{Point{1, 1}, Point{1.5, 1.5}}); !approx(got, 0) {
		t.Errorf("enlargement for contained rect = %v, want 0", got)
	}
	if got := r.Enlargement(Rect{Point{0, 0}, Point{4, 2}}); !approx(got, 4) {
		t.Errorf("enlargement = %v, want 4", got)
	}
}

func TestMBR(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, 0}}
	want := Rect{Point{-2, 0}, Point{4, 5}}
	if got := MBR(pts); got != want {
		t.Errorf("MBR = %v, want %v", got, want)
	}
	if !MBR(nil).IsEmpty() {
		t.Error("MBR of no points should be empty")
	}
}

func TestRectFromPoint(t *testing.T) {
	p := Point{3, 7}
	r := RectFromPoint(p)
	if r.IsEmpty() || r.Area() != 0 || !r.Contains(p) {
		t.Errorf("RectFromPoint(%v) = %v invalid", p, r)
	}
}

func TestStringers(t *testing.T) {
	if s := (Point{1, 2}).String(); s == "" {
		t.Error("empty Point string")
	}
	if s := (Rect{Point{0, 0}, Point{1, 1}}).String(); s == "" {
		t.Error("empty Rect string")
	}
}
