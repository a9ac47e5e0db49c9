package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
)

// failures collects what went wrong in a run; each entry counts once in
// failed_share.
type failures struct {
	count int
	notes []string // the first few, for the report
}

func (f *failures) add(format string, args ...any) {
	f.count++
	if len(f.notes) < 8 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

// checkSamples counts the operations that did not come back 200 with a
// well-formed body.
func checkSamples(samples []sample, ops []op, f *failures) (ok int) {
	for _, s := range samples {
		if s.ok() {
			ok++
			continue
		}
		f.add("operation %d (%s): status %d %s %.120s", s.op, ops[s.op].kind, s.status, s.err, s.body)
	}
	return ok
}

// answersDigest folds the answers to the schedule's first n operations,
// in schedule order, into one SHA-256. The answers depend only on the
// seed — not on timing, parallelism or topology — so the digest must be
// the same on every run of a seed, and the same for cohort-fresh and
// sharded-fresh, which share a schedule. Write answers name epochs,
// which do depend on timing, so a workload with writes has no digest.
func answersDigest(samples []sample, ops []op, n int, f *failures) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		if i >= len(samples) || samples[i].op != i {
			f.add("answers_digest: operation %d of the first %d was never answered", i, n)
			return ""
		}
		if ops[i].write() {
			return ""
		}
		h.Write(samples[i].body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyAgainstLibrary re-answers n operations sampled from the measured
// window through the sequential library path on the now quiet index and
// compares bytes. On a workload with writes only reads are sampled, and
// only those whose answer names no object added during the run: the
// schedule ends on a whole cycle, so the quiet index holds exactly the
// built objects, and such an answer must still be the same.
func verifyAgainstLibrary(lib *library, window []sample, ops []op, n int, builtObjects int, seed int64, f *failures) (checked int) {
	rng := rand.New(rand.NewSource(seed))
	for _, j := range rng.Perm(len(window)) {
		if checked == n {
			break
		}
		s := window[j]
		o := ops[s.op]
		if o.write() || !s.ok() {
			continue
		}
		if o.kind == "topk" && namesObjectFrom(s.body, builtObjects) {
			continue
		}
		checked++
		want, _, err := lib.answer(o, true)
		if err != nil {
			f.add("library answer to operation %d (%s): %v", s.op, o.kind, err)
		} else if !bytes.Equal(want, s.body) {
			f.add("operation %d (%s): server answered %.200s, library %.200s", s.op, o.kind, s.body, want)
		}
	}
	if checked < n {
		f.add("only %d of %d sampled answers could be verified", checked, n)
	}
	return checked
}

// namesObjectFrom reports whether a /topk answer lists an object id of
// first or above.
func namesObjectFrom(body []byte, first int) bool {
	var a topkAnswerJSON
	if json.Unmarshal(body, &a) != nil {
		return true
	}
	for _, r := range a.Results {
		if r.ObjectID >= first {
			return true
		}
	}
	return false
}
