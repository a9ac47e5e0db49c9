package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geo"
	"repro/internal/vocab"
)

// The text interchange format shared by cmd/datagen and cmd/maxbrstknn:
// one record per line, tab-separated —
//
//	objects/users:  id <tab> x <tab> y <tab> kw1,kw2,...
//	candidates:     loc <tab> x <tab> y   |   keywords <tab> kw1,kw2,...
//
// Blank lines and lines starting with '#' are ignored.

// WriteObjects writes objects in the interchange format.
func WriteObjects(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	for _, o := range ds.Objects {
		if _, err := fmt.Fprintf(bw, "%d\t%.6f\t%.6f\t%s\n",
			o.ID, o.Loc.X, o.Loc.Y, formatDoc(ds.Vocab, o.Doc)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadObjects parses objects in the interchange format, registering terms
// into v, and returns the built dataset. IDs are reassigned densely in
// file order.
func ReadObjects(r io.Reader, v *vocab.Vocabulary) (*Dataset, error) {
	var objects []Object
	err := forEachRecord(r, func(lineNo int, fields []string) error {
		if len(fields) < 4 {
			return fmt.Errorf("dataset: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		loc, err := parsePoint(fields[1], fields[2])
		if err != nil {
			return fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		objects = append(objects, Object{
			ID:  int32(len(objects)),
			Loc: loc,
			Doc: parseDoc(v, fields[3]),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Build(objects, v), nil
}

// WriteUsers writes a user set in the interchange format.
func WriteUsers(w io.Writer, v *vocab.Vocabulary, users []User) error {
	bw := bufio.NewWriter(w)
	for _, u := range users {
		if _, err := fmt.Fprintf(bw, "%d\t%.6f\t%.6f\t%s\n",
			u.ID, u.Loc.X, u.Loc.Y, formatDoc(v, u.Doc)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadUsers parses users in the interchange format. Terms are resolved
// through (and added to) v so user keywords share the object vocabulary.
func ReadUsers(r io.Reader, v *vocab.Vocabulary) ([]User, error) {
	var users []User
	err := forEachRecord(r, func(lineNo int, fields []string) error {
		if len(fields) < 4 {
			return fmt.Errorf("dataset: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		loc, err := parsePoint(fields[1], fields[2])
		if err != nil {
			return fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		users = append(users, User{
			ID:  int32(len(users)),
			Loc: loc,
			Doc: parseDoc(v, fields[3]),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return users, nil
}

// WriteCandidates writes candidate locations and keywords.
func WriteCandidates(w io.Writer, v *vocab.Vocabulary, locs []geo.Point, keywords []vocab.TermID) error {
	bw := bufio.NewWriter(w)
	for _, l := range locs {
		if _, err := fmt.Fprintf(bw, "loc\t%.6f\t%.6f\n", l.X, l.Y); err != nil {
			return err
		}
	}
	terms := make([]string, len(keywords))
	for i, t := range keywords {
		terms[i] = v.Term(t)
	}
	if _, err := fmt.Fprintf(bw, "keywords\t%s\n", strings.Join(terms, ",")); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCandidates parses candidate locations and keyword strings.
func ReadCandidates(r io.Reader) ([]geo.Point, []string, error) {
	var locs []geo.Point
	var kws []string
	err := forEachRecord(r, func(lineNo int, fields []string) error {
		switch fields[0] {
		case "loc":
			if len(fields) < 3 {
				return fmt.Errorf("dataset: line %d: loc wants x and y", lineNo)
			}
			p, err := parsePoint(fields[1], fields[2])
			if err != nil {
				return fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
			locs = append(locs, p)
		case "keywords":
			if len(fields) >= 2 && fields[1] != "" {
				kws = append(kws, strings.Split(fields[1], ",")...)
			}
		default:
			return fmt.Errorf("dataset: line %d: unknown record %q", lineNo, fields[0])
		}
		return nil
	})
	return locs, kws, err
}

// ---- helpers ----

func forEachRecord(r io.Reader, fn func(lineNo int, fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := fn(lineNo, strings.Split(line, "\t")); err != nil {
			return err
		}
	}
	return sc.Err()
}

func parsePoint(xs, ys string) (geo.Point, error) {
	x, err := strconv.ParseFloat(xs, 64)
	if err != nil {
		return geo.Point{}, fmt.Errorf("bad x %q: %w", xs, err)
	}
	y, err := strconv.ParseFloat(ys, 64)
	if err != nil {
		return geo.Point{}, fmt.Errorf("bad y %q: %w", ys, err)
	}
	p := geo.Point{X: x, Y: y}
	if !p.Valid() {
		return p, fmt.Errorf("bad point (%g, %g): coordinates must be finite and at most %g in magnitude", x, y, geo.MaxCoord)
	}
	return p, nil
}

// formatDoc expands frequencies into repeated comma-separated terms, so
// the round trip preserves term frequencies exactly.
func formatDoc(v *vocab.Vocabulary, d vocab.Doc) string {
	var parts []string
	d.ForEach(func(t vocab.TermID, f int32) {
		for i := int32(0); i < f; i++ {
			parts = append(parts, v.Term(t))
		}
	})
	return strings.Join(parts, ",")
}

// parseDoc maps comma-separated keywords through v (empty field → empty
// document).
func parseDoc(v *vocab.Vocabulary, field string) vocab.Doc {
	if field == "" {
		return vocab.Doc{}
	}
	parts := strings.Split(field, ",")
	terms := make([]vocab.TermID, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			terms = append(terms, v.Add(p))
		}
	}
	return vocab.DocFromTerms(terms)
}
