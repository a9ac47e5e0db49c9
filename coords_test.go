package maxbrstknn

import (
	"errors"
	"math"
	"testing"
)

// TestBadCoordinatesRefused: a NaN, ±Inf or over-1e150 coordinate gets an
// error wrapping ErrBadPoint, and no answer, at every entry point a point
// takes into the index: built objects, added and updated objects, top-k
// users, session users and candidate locations. A NaN object once ranked
// NaN scores above exact ones, and past 1e150 the squares of a distance
// overflow.
func TestBadCoordinatesRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		v    float64
	}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}, {"1e300", 1e300}, {"-1e300", -1e300}} {
		t.Run(c.name, func(t *testing.T) {
			refused := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrBadPoint) {
					t.Errorf("%s: error %v, want ErrBadPoint", what, err)
				}
			}
			b := NewBuilder()
			b.AddObject(c.v, 0.5, "sushi")
			b.AddObject(0.2, 0.2, "pizza")
			ix, err := b.Build(Options{})
			refused("Build", err)
			if ix != nil {
				t.Error("Build returned an index")
			}

			ix, req := paperExample(t)
			n := ix.NumObjects()
			id, err := ix.AddObject(c.v, 0.5, "sushi")
			refused("AddObject", err)
			_, err = ix.UpdateObject(0, 0.5, c.v, "sushi")
			refused("UpdateObject", err)
			if id != 0 || ix.NumObjects() != n {
				t.Errorf("a refused mutation left id %d and %d objects (want 0 and %d)", id, ix.NumObjects(), n)
			}
			top, err := ix.TopK(c.v, 0.15, []string{"sushi"}, 3)
			refused("TopK", err)
			if top != nil {
				t.Errorf("TopK answered %v", top)
			}

			users := append([]UserSpec(nil), req.Users...)
			users[2].Y = c.v
			s, err := ix.NewUnpreparedSession(users, req.K)
			refused("NewUnpreparedSession", err)
			if s != nil {
				t.Error("NewUnpreparedSession returned a session")
			}
			bad := req
			bad.Users = users
			res, err := ix.MaxBRSTkNN(bad)
			refused("MaxBRSTkNN user", err)
			if res.Count() != 0 {
				t.Errorf("MaxBRSTkNN answered %+v", res)
			}

			bad = req
			bad.Locations = append([][2]float64{{1, 1}}, [2]float64{c.v, 7})
			res, err = ix.MaxBRSTkNN(bad)
			refused("MaxBRSTkNN location", err)
			if res.Count() != 0 {
				t.Errorf("MaxBRSTkNN answered %+v", res)
			}

			refused("ShardBuilder.AddObject", NewShardBuilder(ix.FrozenCorpus()).AddObject(0, c.v, c.v, "sushi"))
		})
	}
}
