package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	maxbrstknn "repro"
	"repro/internal/server"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req, the operation's index in the schedule; Parent names the
// span that caused this one. Times are nanoseconds since the recorder
// was created.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// current is the operation being replayed. The coordinator's calls
	// to its shards carry no operation header, so during the sequential
	// replay — one request in flight — a shard span belongs to current.
	// It is -1 while traffic is concurrent.
	current atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.current.Store(-1)
	return r
}

func (r *recorder) add(name string, req int, parent string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	r.mu.Unlock()
}

// wrap is the benchmark's tracing middleware: one span around each POST
// a handler serves. Probes (GET /stats, /healthz) are not traced.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		if q.Method != http.MethodPost {
			h.ServeHTTP(w, q)
			return
		}
		name, parent := layer+".handler", "client"
		if layer == "shard" {
			name, parent = "shard."+path.Base(q.URL.Path), "coordinator.handler"
		}
		req := int(r.current.Load())
		if v, err := strconv.Atoi(q.Header.Get(opHeader)); err == nil {
			req = v
		}
		start := time.Now()
		h.ServeHTTP(w, q)
		r.add(name, req, parent, start, time.Now())
	})
}

// byRequest groups the recorded spans by operation.
func (r *recorder) byRequest() map[int][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int][]span{}
	for _, s := range r.spans {
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}

// union is the total time covered by at least one of the spans.
func union(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return time.Duration(total)
}

// libTimes is what one request costs when the library answers it
// directly: the per-layer split of a handler's work.
type libTimes struct {
	decode time.Duration // JSON body → library request
	phase1 time.Duration // Index.NewSession: joint top-k over the cohort
	phase2 time.Duration // Session.Run / RunTopL: location and keyword selection
	work   time.Duration // Index.TopK, AddObject, UpdateObject or DeleteObject
	encode time.Duration // library answer → JSON body
}

func (t libTimes) sum() time.Duration { return t.decode + t.phase1 + t.phase2 + t.work + t.encode }

// library answers operations through the public facade, the way the
// handlers do, without HTTP. The traced replay times it to split a
// handler span into layers; verification uses it as the oracle.
type library struct {
	idx *maxbrstknn.Index
	// sessions holds the prepared session of each repeating cohort, as
	// the server's session cache does.
	sessions map[int]*maxbrstknn.Session
	// chain is the object the next replayed /update or /delete names:
	// the facade replay mutates the index a second time, so the ids in
	// the pre-marshalled bodies are already spent.
	chain int
}

func newLibrary(idx *maxbrstknn.Index) *library {
	return &library{idx: idx, sessions: map[int]*maxbrstknn.Session{}}
}

func (l *library) close() {
	for c := 0; c < repeatCohorts; c++ {
		if s := l.sessions[c]; s != nil {
			s.Close()
		}
	}
}

// answer returns the bytes the server must have written for o. With
// sequential set the request's parallelism is dropped: the paper's
// sequential pipeline, which every parallel setting must equal.
func (l *library) answer(o op, sequential bool) ([]byte, libTimes, error) {
	var t libTimes
	timed := func(d *time.Duration, f func() error) error {
		start := time.Now()
		err := f()
		*d += time.Since(start)
		return err
	}
	var out []byte
	switch o.kind {
	case "maxbrstknn", "topl":
		var wire server.QueryRequest
		var req maxbrstknn.Request
		err := timed(&t.decode, func() (err error) {
			if err = json.Unmarshal(o.body, &wire); err == nil {
				req, err = wire.ToRequest()
			}
			return err
		})
		if err != nil {
			return nil, t, err
		}
		if sequential {
			req.Parallel = maxbrstknn.ParallelOptions{}
		}
		sess := l.sessions[o.cohort]
		if sess == nil {
			err = timed(&t.phase1, func() (err error) {
				sess, err = l.idx.NewSession(req.Users, req.K)
				return err
			})
			if err != nil {
				return nil, t, err
			}
			if o.cohort >= 0 {
				l.sessions[o.cohort] = sess
			} else {
				defer sess.Close()
			}
		}
		if o.kind == "topl" {
			var rs []maxbrstknn.Result
			if err = timed(&t.phase2, func() (err error) { rs, err = sess.RunTopL(req, wire.L); return err }); err != nil {
				return nil, t, err
			}
			err = timed(&t.encode, func() (err error) { out, err = server.ResultsJSON(rs); return err })
		} else {
			var r maxbrstknn.Result
			if err = timed(&t.phase2, func() (err error) { r, err = sess.Run(req); return err }); err != nil {
				return nil, t, err
			}
			err = timed(&t.encode, func() (err error) { out, err = server.ResultJSON(r); return err })
		}
		return out, t, err
	case "topk":
		var q topkJSON
		if err := timed(&t.decode, func() error { return json.Unmarshal(o.body, &q) }); err != nil {
			return nil, t, err
		}
		var rs []maxbrstknn.RankedObject
		if err := timed(&t.work, func() (err error) { rs, err = l.idx.TopK(q.X, q.Y, q.Keywords, q.K); return err }); err != nil {
			return nil, t, err
		}
		err := timed(&t.encode, func() (err error) { out, err = server.TopKJSON(rs); return err })
		return out, t, err
	case "add", "update":
		var q objectJSON
		if err := timed(&t.decode, func() error { return json.Unmarshal(o.body, &q) }); err != nil {
			return nil, t, err
		}
		err := timed(&t.work, func() (err error) {
			if o.kind == "add" {
				l.chain, err = l.idx.AddObject(q.X, q.Y, q.Keywords...)
			} else {
				l.chain, err = l.idx.UpdateObject(l.chain, q.X, q.Y, q.Keywords...)
			}
			return err
		})
		if err != nil {
			return nil, t, err
		}
	case "delete":
		var q deleteJSON
		if err := timed(&t.decode, func() error { return json.Unmarshal(o.body, &q) }); err != nil {
			return nil, t, err
		}
		if err := timed(&t.work, func() error { return l.idx.DeleteObject(l.chain) }); err != nil {
			return nil, t, err
		}
	default:
		return nil, t, fmt.Errorf("no library path for %q", o.kind)
	}
	// A mutation's answer, as the handler builds it.
	err := timed(&t.encode, func() (err error) {
		st := l.idx.IngestStats()
		out, err = json.Marshal(mutationJSON{ID: l.chain, Epoch: st.Epoch, LiveObjects: st.LiveObjects})
		return err
	})
	return append(out, '\n'), t, err
}

// replayed is one operation of the traced sequential replay: what the
// client saw against the traced system and its untraced references, the
// spans the middleware recorded for it, and the library's layer split.
type replayed struct {
	op     int
	kind   string
	sample sample        // the traced system's answer and latency
	twin   time.Duration // same operation, untraced twin; 0 when not sent
	single time.Duration // same operation, single server (sharded workloads); 0 when not sent

	handler     time.Duration // the public handler's span
	shardCalls  int
	shardBusy   time.Duration // union of the shard spans
	shardPhase1 time.Duration // union of the /shard/phase1 spans
	shardSelect time.Duration // union of the /shard/select spans

	lib libTimes
}

// replay sends the next count operations one at a time to the traced
// system and, for comparison, to each untraced reference, rotating which
// goes first so that no side always finds the shared caches warm; then
// it has the library answer the same operation, so that the layer split
// is taken within milliseconds of the request it explains. Writes go to
// the traced system only: a second copy would name spent ids. Answers
// are compared with the library's when compare is set.
func (g *loadgen) replay(rec *recorder, traced string, twin, single *fleet, lib *library, count int, compare bool, fails *failures) ([]replayed, error) {
	if g.next+count > len(g.ops) {
		return nil, fmt.Errorf("schedule exhausted before the traced replay: %d operations left, %d needed", len(g.ops)-g.next, count)
	}
	c := g.senders[0]
	start := time.Now()
	out := make([]replayed, 0, count)
	for n := 0; n < count; n++ {
		i := g.next
		g.next++
		o := g.ops[i]
		r := replayed{op: i, kind: o.kind}
		rec.current.Store(int64(i))
		targets := []func(){func() { r.sample = c.do(traced, o, i, start, -1) }}
		if !o.write() {
			targets = append(targets, func() { r.twin = c.do(twin.url, o, i, start, -1).latency() })
			if single != nil {
				targets = append(targets, func() { r.single = c.do(single.url, o, i, start, -1).latency() })
			}
		}
		for k := range targets {
			targets[(n+k)%len(targets)]()
		}
		rec.current.Store(-1)
		rec.add("client", i, "", start.Add(r.sample.sent), start.Add(r.sample.done))
		if !r.sample.ok() {
			fails.add("replayed operation %d (%s): status %d %s", i, o.kind, r.sample.status, r.sample.err)
		}

		at := time.Now()
		want, t, err := lib.answer(o, false)
		if err != nil {
			return nil, fmt.Errorf("library replay of operation %d (%s): %w", i, o.kind, err)
		}
		if compare && !bytes.Equal(want, r.sample.body) {
			fails.add("replayed operation %d (%s): server answered %.200s, library %.200s", i, o.kind, r.sample.body, want)
		}
		r.lib = t
		for _, part := range []struct {
			name string
			d    time.Duration
		}{
			{"server.decode", t.decode}, {"topk.phase1", t.phase1}, {"core.phase2", t.phase2},
			{workSpan(o.kind), t.work}, {"server.encode", t.encode},
		} {
			if part.d > 0 {
				rec.add(part.name, i, "library", at, at.Add(part.d))
				at = at.Add(part.d)
			}
		}
		out = append(out, r)
	}
	attach(out, rec.byRequest())
	return out, nil
}

// attach fills each replayed operation's span-derived fields.
func attach(rs []replayed, spans map[int][]span) {
	for i := range rs {
		r := &rs[i]
		var shard, phase1, sel []span
		for _, s := range spans[r.op] {
			switch s.Name {
			case "server.handler", "coordinator.handler":
				r.handler = s.dur()
			case "shard.phase1":
				phase1 = append(phase1, s)
			case "shard.select":
				sel = append(sel, s)
			}
			if s.Parent == "coordinator.handler" {
				shard = append(shard, s)
			}
		}
		r.shardCalls = len(shard)
		r.shardBusy, r.shardPhase1, r.shardSelect = union(shard), union(phase1), union(sel)
	}
}

func workSpan(kind string) string {
	if kind == "topk" {
		return "irtree.topk"
	}
	return "ingest." + kind
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics turns the replay into the span-based rows of the
// per-layer table. Values are medians over the replayed operations.
func layerMetrics(w workload, rs []replayed, m map[string]float64) {
	col := func(keep func(replayed) bool, f func(replayed) float64) []float64 {
		var xs []float64
		for _, r := range rs {
			if keep == nil || keep(r) {
				xs = append(xs, f(r))
			}
		}
		return xs
	}
	all := func(f func(replayed) float64) float64 { return median(col(nil, f)) }
	kind := func(k string) func(replayed) bool { return func(r replayed) bool { return r.kind == k } }
	sharded := w.topology == topologySharded

	// On the sharded fleet the two phases are the shard servers' spans;
	// elsewhere they are the library's.
	phase1 := func(r replayed) time.Duration {
		if sharded {
			return r.shardPhase1
		}
		return r.lib.phase1
	}
	phase2 := func(r replayed) time.Duration {
		if sharded {
			return r.shardSelect
		}
		return r.lib.phase2
	}

	m["server.handler_ms"] = all(func(r replayed) float64 { return ms(r.handler) })
	m["server.transport_ms"] = all(func(r replayed) float64 { return ms(r.sample.latency() - r.handler) })
	m["server.decode_ms"] = all(func(r replayed) float64 { return ms(r.lib.decode) })
	m["server.encode_ms"] = all(func(r replayed) float64 { return ms(r.lib.encode) })
	m["server.json_share"] = all(func(r replayed) float64 {
		return ratio(float64(r.lib.decode+r.lib.encode), float64(r.sample.latency()))
	})
	m["topk.phase1_ms"] = all(func(r replayed) float64 { return ms(phase1(r)) })
	m["topk.phase1_share"] = all(func(r replayed) float64 { return ratio(float64(phase1(r)), float64(r.handler)) })
	m["core.phase2_ms"] = all(func(r replayed) float64 { return ms(phase2(r)) })
	m["core.phase2_share"] = all(func(r replayed) float64 { return ratio(float64(phase2(r)), float64(r.handler)) })
	work := func(r replayed) float64 { return ms(r.lib.work) }
	m["irtree.topk_ms"] = median(col(kind("topk"), work))
	m["ingest.add_ms"] = median(col(kind("add"), work))
	m["ingest.update_ms"] = median(col(kind("update"), work))
	m["ingest.delete_ms"] = median(col(kind("delete"), work))

	if sharded {
		m["coordinator.handler_ms"] = m["server.handler_ms"]
		m["coordinator.shard_busy_ms"] = all(func(r replayed) float64 { return ms(r.shardBusy) })
		m["coordinator.self_ms"] = all(func(r replayed) float64 { return ms(r.handler - r.shardBusy) })
		m["coordinator.shard_calls_per_req"] = all(func(r replayed) float64 { return float64(r.shardCalls) })
		m["shard.phase1_ms"] = m["topk.phase1_ms"]
		m["shard.select_ms"] = m["core.phase2_ms"]
		m["coordinator.tax_vs_single"] = ratio(
			all(func(r replayed) float64 { return ms(r.sample.latency()) }),
			all(func(r replayed) float64 { return ms(r.single) }))
	}

	// The layers must add up to what the client saw. Every part is measured
	// on its own: transport from the client's clock and the handler span,
	// the rest from the library replay — or, on the sharded fleet, from the
	// shard servers' spans plus the library's JSON decode and encode of the
	// same bytes. What the sum leaves out there is the coordinator's shard
	// wire coding and merges, so it falls short of 1 by their share.
	m["trace.layers_sum_share"] = all(func(r replayed) float64 {
		inside := r.lib.sum()
		if sharded {
			inside = r.shardBusy + r.lib.decode + r.lib.encode
		}
		return ratio(float64(r.sample.latency()-r.handler+inside), float64(r.sample.latency()))
	})
	twinned := func(r replayed) bool { return r.twin > 0 }
	m["trace.overhead_share"] = ratio(
		median(col(twinned, func(r replayed) float64 { return ms(r.sample.latency()) })),
		median(col(twinned, func(r replayed) float64 { return ms(r.twin) }))) - 1
}
