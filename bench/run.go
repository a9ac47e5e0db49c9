package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	maxbrstknn "repro"
	"repro/internal/dataset"
)

// result is one workload's run as written to result.json and printed.
type result struct {
	Workload      string        `json:"workload"`
	Traced        bool          `json:"traced"`
	Seed          int64         `json:"seed"`
	Objects       int           `json:"objects"`
	WarmupSeconds float64       `json:"warmup_seconds"`
	WindowSeconds float64       `json:"window_seconds"`
	Samples       int           `json:"samples"`
	Attempted     int           `json:"attempted"`
	OK            int           `json:"ok"`
	Failed        int           `json:"failed"`
	FailedShare   float64       `json:"failed_share"`
	Verified      int           `json:"verified"`
	AnswersDigest string        `json:"answers_digest,omitempty"`
	Notes         []string      `json:"notes,omitempty"`
	Ports         []int         `json:"ports"`
	Metrics       []metricValue `json:"metrics"`
}

func (r result) metric(name string) (metricValue, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// counters is every counter the per-layer table takes a delta of.
type counters struct {
	cache          maxbrstknn.CacheStats
	records, pages int64
	ingest         maxbrstknn.IngestStats
	served         servedCounters
	mem            runtime.MemStats
	gcCPU, allCPU  float64
}

// servedCounters is the part of the public server's /stats the table
// reads: a single server reports its session cache, a coordinator its
// cache of merged phase-1 thresholds and its scatter-gather counters.
type servedCounters struct {
	SessionCache   lookupCounters `json:"session_cache"`
	ThresholdCache lookupCounters `json:"threshold_cache"`
	Phase1         struct {
		Wave1Visited int64 `json:"wave1_visited"`
		Wave2Visited int64 `json:"wave2_visited"`
		Wave1Refined int64 `json:"wave1_refined"`
		Wave2Refined int64 `json:"wave2_refined"`
	} `json:"phase1"`
	Retries     int64 `json:"retries"`
	ShardErrors int64 `json:"shard_errors"`
}

type lookupCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func readCounters(s *system, c *sender) (counters, error) {
	var k counters
	for _, idx := range s.served() {
		cs := idx.CacheStats()
		k.cache.BufferHits += cs.BufferHits
		k.cache.BufferMisses += cs.BufferMisses
		k.cache.DecodedHits += cs.DecodedHits
		k.cache.DecodedMisses += cs.DecodedMisses
		k.cache.DecodedEvictions += cs.DecodedEvictions
		k.cache.DecodedBytes += cs.DecodedBytes
		rec, pg := idx.ReadStats()
		k.records += rec
		k.pages += pg
	}
	k.ingest = s.oracle.IngestStats()
	if err := c.getJSON(s.fleet.url+"/stats", &k.served); err != nil {
		return k, err
	}
	runtime.ReadMemStats(&k.mem)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	k.gcCPU, k.allCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	return k, nil
}

// counterMetrics fills the counter-based rows of the per-layer table
// from the deltas over the measured window.
func counterMetrics(w workload, a, b counters, window []sample, ops []op, m map[string]float64) {
	n := float64(len(window))
	writes := 0.0
	var reqBytes, respBytes float64
	var reads, writeLat []float64
	for _, s := range window {
		reqBytes += float64(len(ops[s.op].body))
		respBytes += float64(len(s.body))
		if ops[s.op].write() {
			writes++
			writeLat = append(writeLat, ms(s.latency()))
		} else {
			reads = append(reads, ms(s.latency()))
		}
	}
	m["server.request_bytes"] = ratio(reqBytes, n)
	m["server.response_bytes"] = ratio(respBytes, n)
	hits := float64(b.served.SessionCache.Hits - a.served.SessionCache.Hits + b.served.ThresholdCache.Hits - a.served.ThresholdCache.Hits)
	misses := float64(b.served.SessionCache.Misses - a.served.SessionCache.Misses + b.served.ThresholdCache.Misses - a.served.ThresholdCache.Misses)
	m["server.session_hit_rate"] = ratio(hits, hits+misses)

	if w.topology == topologySharded {
		p, q := a.served.Phase1, b.served.Phase1
		w1, w2 := float64(q.Wave1Refined-p.Wave1Refined), float64(q.Wave2Refined-p.Wave2Refined)
		m["topk.visited_per_req"] = ratio(float64(q.Wave1Visited-p.Wave1Visited+q.Wave2Visited-p.Wave2Visited), n)
		m["topk.refined_per_req"] = ratio(w1+w2, n)
		m["topk.wave2_refined_share"] = ratio(w2, w1+w2)
		m["coordinator.retries"] = float64(b.served.Retries - a.served.Retries)
		m["coordinator.shard_errors"] = float64(b.served.ShardErrors - a.served.ShardErrors)
	}

	m["ingest.read_p50_ms"], m["ingest.read_p95_ms"] = percentile(reads, 50), percentile(reads, 95)
	m["ingest.write_p50_ms"], m["ingest.write_p95_ms"] = percentile(writeLat, 50), percentile(writeLat, 95)
	m["ingest.retired_pages_per_mutation"] = ratio(float64(b.ingest.RetiredPages-a.ingest.RetiredPages), writes)
	m["ingest.epochs"] = float64(b.ingest.Epoch - a.ingest.Epoch)

	dh, dm := float64(b.cache.DecodedHits-a.cache.DecodedHits), float64(b.cache.DecodedMisses-a.cache.DecodedMisses)
	m["storage.decoded_hit_rate"] = ratio(dh, dh+dm)
	m["storage.decoded_lookups_per_op"] = ratio(dh+dm, n)
	m["storage.decoded_evictions_per_op"] = ratio(float64(b.cache.DecodedEvictions-a.cache.DecodedEvictions), n)
	m["storage.decoded_resident_mb"] = float64(b.cache.DecodedBytes) / (1 << 20)
	bh, bm := float64(b.cache.BufferHits-a.cache.BufferHits), float64(b.cache.BufferMisses-a.cache.BufferMisses)
	m["storage.buffer_hit_rate"] = ratio(bh, bh+bm)
	m["storage.physical_records_per_op"] = ratio(float64(b.records-a.records), n)
	m["storage.physical_pages_per_op"] = ratio(float64(b.pages-a.pages), n)

	m["runtime.allocs_per_op"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), n)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), n)
	m["runtime.gc_cpu_share"] = ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
	// PauseNs is a ring of the last 256 collections.
	var pause uint64
	for gc := a.mem.NumGC; gc < b.mem.NumGC && gc < a.mem.NumGC+256; gc++ {
		if p := b.mem.PauseNs[gc%256]; p > pause {
			pause = p
		}
	}
	m["runtime.gc_pause_max_ms"] = float64(pause) / 1e6

	// An operation is late when it left more than 2 ms after it was due:
	// a sleeping sender wakes up to a millisecond after its timer here,
	// so anything beyond that means its connection was still busy.
	var late, maxLate float64
	for _, s := range window {
		d := ms(s.sent - s.due)
		if d > 2 {
			late++
		}
		maxLate = max(maxLate, d)
	}
	m["loadgen.samples"] = n
	m["loadgen.late_share"] = ratio(late, n)
	m["loadgen.max_late_ms"] = maxLate
}

// settle returns freed memory to the system, so that one set-up's
// garbage does not count towards the peak of the next.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// vmHWM is the process's peak resident set in MB, from /proc.
func vmHWM() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetHWM restarts the kernel's peak-memory count for this process. An
// error means the kernel refused, and VmHWM stays the peak since the
// process started.
func resetHWM() error {
	settle()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// round is one set-up of a workload's system and what was measured on
// it. An untraced run makes several: how fast an index answers depends
// on where its nodes landed in memory, which differs from one build to
// the next by more than any bound here, so one run measures several
// builds and pools their samples.
type round struct {
	ops       []op
	measured  []sample
	elapsed   time.Duration // of the measured window, to its last answer
	ok        int
	setup     time.Duration
	spans     map[string]float64 // set-up steps, seconds
	fileBytes int64
	ports     []int
	peakMB    float64 // VmHWM from the end of set-up to the end of the window
	peakSince error   // non-nil: VmHWM could not be reset, peakMB counts from process start
	digest    string
	verified  int
	exhausted bool // the closed loop outran its schedule

	before, after counters   // traced: around the window
	replayed      []replayed // traced
}

// runRound sets w's system up, warms it, measures one window, verifies
// the answers and tears the system down again. The schedule — every
// body the round will send — is marshalled before set-up starts.
func runRound(w workload, sc scale, ds *dataset.Dataset, seed int64, window time.Duration, verify int, rec *recorder, dir string, fails *failures) (r round, err error) {
	replayOps, extraWarm := 0, 0
	if rec != nil {
		// The untraced references are warmed from the schedule too.
		replayOps, extraWarm = sc.replayOps, max(w.minWarmOps, 8)
		if w.rate > 0 {
			replayOps, extraWarm = sc.replayCycles*ingestCycle, ingestCycle
		}
	}
	var count int
	if w.rate > 0 {
		count = wholeCycles(sc.warmup, w.rate) + wholeCycles(window, w.rate)
	} else {
		count = int((sc.warmup+window).Seconds()*float64(w.opsPerSec(sc))) + w.minWarmOps
	}
	if r.ops, err = w.gen(ds, seed, count+replayOps+extraWarm); err != nil {
		return r, err
	}

	wrap := wrapFunc(noWrap)
	if rec != nil {
		wrap = rec.wrap
	}
	sys, err := setUp(w, ds, dir, wrap)
	if err != nil {
		return r, err
	}
	defer func() {
		if cerr := sys.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	r.setup, r.spans, r.ports = sys.total, sys.spans, sys.fleet.ports()
	if sys.file != "" {
		if st, err := os.Stat(sys.file); err == nil {
			r.fileBytes = st.Size()
		}
	}
	// From here on the peak is the serving system's: set-up has its own
	// metric, and its garbage should not hide what serving needs.
	r.peakSince = resetHWM()

	g := newLoadgen(r.ops, w.clients)
	defer g.close()
	warm, _ := g.phase(w, sys.fleet.url, sc.warmup, w.minWarmOps)
	checkSamples(warm, r.ops, fails)
	if rec != nil {
		if r.before, err = readCounters(sys, g.senders[0]); err != nil {
			return r, err
		}
	}
	r.measured, r.elapsed = g.phase(w, sys.fleet.url, window, 0)
	r.peakMB = vmHWM()
	r.ok = checkSamples(r.measured, r.ops, fails)
	r.exhausted = w.rate == 0 && g.next == len(r.ops)-replayOps-extraWarm
	if rec != nil {
		if r.after, err = readCounters(sys, g.senders[0]); err != nil {
			return r, err
		}
		if r.replayed, err = tracedReplay(w, sys, g, rec, replayOps, extraWarm, fails); err != nil {
			return r, err
		}
	}

	// Verification, on the quiet system.
	all := append(warm, r.measured...)
	r.digest = answersDigest(all, r.ops, min(sc.digestOps, len(all)), fails)
	lib := newLibrary(sys.oracle)
	defer lib.close()
	r.verified = verifyAgainstLibrary(lib, r.measured, r.ops, verify, len(ds.Objects), seed, fails)
	if w.rate > 0 {
		if live := sys.oracle.IngestStats().LiveObjects; live != len(ds.Objects) {
			fails.add("live_objects is %d after the run, %d were built", live, len(ds.Objects))
		}
	}
	return r, nil
}

// runWorkload runs one workload end to end and reports it. Untraced it
// splits the measured window over sc.setups rounds; traced it makes one
// round with the whole window and the sequential replay after it.
func runWorkload(w workload, sc scale, seed int64, window time.Duration, traced bool, dir string) (result, error) {
	res := result{Workload: w.name, Traced: traced, Seed: seed, Objects: w.objects(sc), WarmupSeconds: sc.warmup.Seconds()}
	values := map[string]float64{}
	var fails failures

	genStart := time.Now()
	ds := generateDataset(res.Objects)
	values["build.generate_s"] = time.Since(genStart).Seconds()

	rounds, rec := sc.setups, (*recorder)(nil)
	if traced {
		rounds, rec = 1, newRecorder()
	}
	rows, err := newSampleWriter(filepath.Join(dir, "samples-"+w.name+".csv"))
	if err != nil {
		return res, err
	}
	defer rows.close()
	var last round
	var lat, setups, peaks []float64
	var elapsed time.Duration
	for i := 0; i < rounds; i++ {
		settle()
		// Each round has a schedule of its own; the first one's is the
		// traced run's too, so their answers_digest must agree.
		r, err := runRound(w, sc, ds, seed*31+int64(i), window/time.Duration(rounds), (sc.verifySamples+rounds-1)/rounds, rec, dir, &fails)
		if err != nil {
			return res, err
		}
		if i == 0 {
			res.AnswersDigest = r.digest
		}
		for _, s := range r.measured {
			if s.ok() {
				lat = append(lat, ms(s.latency()))
			}
		}
		rows.write(i, r.measured, r.ops)
		setups, peaks = append(setups, r.setup.Seconds()), append(peaks, r.peakMB)
		elapsed += r.elapsed
		res.Samples += len(r.measured)
		res.Attempted += len(r.measured) + len(r.replayed)
		res.OK += r.ok
		res.Verified += r.verified
		res.Ports = append(res.Ports, r.ports...)
		if r.peakSince != nil && i == 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("mem_peak_mb counts from process start, set-up included: %v", r.peakSince))
		}
		if r.exhausted {
			res.Notes = append(res.Notes, "the closed loop outran its pre-marshalled schedule; a window ended early")
		}
		last = r
	}
	res.WindowSeconds = elapsed.Seconds()

	values["setup_s"] = median(setups)
	values["latency_p50_ms"] = percentile(lat, 50)
	values["latency_p95_ms"] = percentile(lat, 95)
	values["throughput_rps"] = ratio(float64(res.OK), elapsed.Seconds())
	values["mem_peak_mb"] = median(peaks)
	if traced {
		for _, name := range []string{"build.index_s", "persist.save_s", "persist.load_s", "shardplan.split_s", "shardplan.build_shards_s"} {
			values[name] = last.spans[name]
		}
		values["persist.file_bytes_per_object"] = float64(last.fileBytes) / float64(res.Objects)
		counterMetrics(w, last.before, last.after, last.measured, last.ops, values)
		layerMetrics(w, last.replayed, values)
		if err := writeJSON(filepath.Join(dir, "trace-"+w.name+".json"), rec.spans); err != nil {
			return res, err
		}
	}

	res.Failed = min(fails.count, res.Attempted)
	res.Notes = append(res.Notes, fails.notes...)
	res.FailedShare = ratio(float64(res.Failed), float64(res.Attempted))
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res.Metrics = fill(defs, values)
	return res, rows.close()
}

// tracedReplay is the second half of a traced run: the next operations
// of the schedule, one at a time, against the traced system, an untraced
// twin and (sharded) a single server over the whole index, each followed
// by the library's answer to the same operation for the layer split.
func tracedReplay(w workload, sys *system, g *loadgen, rec *recorder, count, warm int, fails *failures) ([]replayed, error) {
	twin, err := sys.twin()
	if err != nil {
		return nil, err
	}
	defer twin.close()
	refs := []*fleet{twin.fleet}
	var single *fleet
	if w.topology == topologySharded {
		if single, err = serveSingle(sys.oracle, noWrap); err != nil {
			return nil, err
		}
		defer single.close()
		refs = append(refs, single)
	}
	// The library replays every operation, writes too, so where caches
	// belong to the index (the file-backed one) it needs an index of its
	// own that sees the same sequence as the traced system's.
	libIndex := sys.oracle
	if sys.file != "" {
		if libIndex, err = maxbrstknn.LoadWithOptions(sys.file, fileLoadOptions); err != nil {
			return nil, err
		}
		defer libIndex.Close()
	}
	lib := newLibrary(libIndex)
	defer lib.close()

	// Warm the references as the traced system was warmed: their caches,
	// and the library's prepared sessions, are their own.
	for n := 0; n < warm && g.next < len(g.ops); n++ {
		o := g.ops[g.next]
		targets := refs
		if o.write() {
			// The write must still happen, and in order: later bodies
			// name the ids it allocates.
			targets = []*fleet{sys.fleet}
		}
		for _, f := range targets {
			if s := g.senders[0].do(f.url, o, g.next, time.Now(), -1); !s.ok() {
				fails.add("warming %s with operation %d: status %d %s", f.url, s.op, s.status, s.err)
			}
		}
		if _, _, err := lib.answer(o, false); err != nil {
			return nil, err
		}
		g.next++
	}
	// Under writes an answer depends on when it was given, and the
	// library's index is not the server's; verification covers those.
	return g.replay(rec, sys.fleet.url, twin.fleet, single, lib, count, w.rate == 0, fails)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sampleWriter keeps the raw per-operation rows, so percentiles can be
// recomputed without running again. Times are microseconds since the
// round's window opened.
type sampleWriter struct {
	f  *os.File
	cw *csv.Writer
}

func newSampleWriter(path string) (*sampleWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sw := &sampleWriter{f: f, cw: csv.NewWriter(f)}
	sw.cw.Write([]string{"round", "op", "due_us", "sent_us", "done_us", "kind", "status"})
	return sw, nil
}

func (sw *sampleWriter) write(round int, samples []sample, ops []op) {
	for _, s := range samples {
		sw.cw.Write([]string{
			strconv.Itoa(round), strconv.Itoa(s.op),
			strconv.FormatInt(s.due.Microseconds(), 10),
			strconv.FormatInt(s.sent.Microseconds(), 10),
			strconv.FormatInt(s.done.Microseconds(), 10),
			ops[s.op].kind, strconv.Itoa(s.status),
		})
	}
}

// close flushes and closes the file; closing twice is harmless.
func (sw *sampleWriter) close() error {
	if sw.f == nil {
		return nil
	}
	sw.cw.Flush()
	err := errors.Join(sw.cw.Error(), sw.f.Close())
	sw.f = nil
	return err
}

// printResult writes one workload's report: counts first, then every
// metric by name with its unit.
func printResult(out io.Writer, r result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "== %s (%s, seed %d, %d objects, %.1f s warm-up, %.2f s window)\n",
		r.Workload, mode, r.Seed, r.Objects, r.WarmupSeconds, r.WindowSeconds)
	fmt.Fprintf(out, "   samples %d  attempted %d  ok %d  failed %d  failed_share %g  verified %d\n",
		r.Samples, r.Attempted, r.OK, r.Failed, r.FailedShare, r.Verified)
	if r.AnswersDigest != "" {
		fmt.Fprintf(out, "   answers_digest %s\n", r.AnswersDigest)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "   note: %s\n", n)
	}
	fmt.Fprintf(out, "   ports %s\n", strings.Trim(fmt.Sprint(r.Ports), "[]"))
	for _, m := range r.Metrics {
		fmt.Fprintf(out, "   %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
}
