package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// opHeader carries the schedule index of an operation to the tracing
// middleware, so the spans of one request share an identifier.
const opHeader = "X-Bench-Op"

// sample is one operation as the client saw it. Times count from the
// start of the phase the operation belongs to.
type sample struct {
	op              int // index into the schedule
	due, sent, done time.Duration
	status          int    // 0 when the transport failed
	err             string // transport error, if any
	body            []byte
}

func (s sample) ok() bool { return s.status == http.StatusOK && json.Valid(s.body) }

// latency is what the user waited: in a closed loop due == sent.
func (s sample) latency() time.Duration { return s.done - s.due }

// sender is one client: one goroutine, one keep-alive connection per
// server it talks to.
type sender struct {
	hc *http.Client
	tr *http.Transport
}

func newSender() *sender {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &sender{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
}

func (c *sender) post(url string, o op, index int) (status int, body []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, url+"/"+o.kind, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(index))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

func (c *sender) getJSON(url string, into any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, into)
}

// loadgen drives one schedule through a workload's phases: the warm-up,
// the measured window and a traced run's replay each take the next
// operations, so no phase ever repeats an operation.
type loadgen struct {
	ops     []op
	next    int // first operation not yet taken by a phase
	senders []*sender
}

func newLoadgen(ops []op, clients int) *loadgen {
	g := &loadgen{ops: ops}
	for i := 0; i < clients; i++ {
		g.senders = append(g.senders, newSender())
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.senders {
		c.tr.CloseIdleConnections()
	}
}

// do issues one operation and records it; a negative due means "now",
// the closed loop's case.
func (c *sender) do(url string, o op, index int, start time.Time, due time.Duration) sample {
	s := sample{op: index, due: due, sent: time.Since(start)}
	if due < 0 {
		s.due = s.sent
	}
	status, body, err := c.post(url, o, index)
	s.done = time.Since(start)
	s.status, s.body = status, body
	if err != nil {
		s.err = err.Error()
	}
	return s
}

// closedPhase runs every client in a closed loop — the next request
// leaves when the previous answer has arrived — for dur, and beyond it
// until minOps operations have been started. It returns the samples in
// schedule order and how long the phase took to the last answer.
func (g *loadgen) closedPhase(url string, dur time.Duration, minOps int) ([]sample, time.Duration) {
	first := g.next
	start := time.Now()
	// claim hands out the next operation, or -1 once the phase is over.
	// The clock is read under the lock so that no index is skipped: the
	// next phase continues exactly where this one stopped.
	var mu sync.Mutex
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if g.next >= len(g.ops) || (time.Since(start) >= dur && g.next-first >= minOps) {
			return -1
		}
		g.next++
		return g.next - 1
	}
	perClient := make([][]sample, len(g.senders))
	var wg sync.WaitGroup
	for c, snd := range g.senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				perClient[c] = append(perClient[c], snd.do(url, g.ops[i], i, start, -1))
			}
		}()
	}
	wg.Wait()
	return mergeSamples(perClient), time.Since(start)
}

// openPhase issues the next count operations on their schedule, one
// every 1/rate seconds, whether or not earlier ones have been answered:
// each sender takes the operations assigned to it in order and sends
// each when it is due, or as soon after as its connection is free.
// Latency counts from the due time either way.
func (g *loadgen) openPhase(url string, count int, rate float64) ([]sample, time.Duration) {
	if g.next+count > len(g.ops) {
		count = len(g.ops) - g.next
	}
	first := g.next
	g.next += count
	start := time.Now()
	perClient := make([][]sample, len(g.senders))
	var wg sync.WaitGroup
	for c, snd := range g.senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := first; i < first+count; i++ {
				if g.ops[i].sender != c {
					continue
				}
				due := time.Duration(float64(i-first) / rate * float64(time.Second))
				time.Sleep(due - time.Since(start))
				perClient[c] = append(perClient[c], snd.do(url, g.ops[i], i, start, due))
			}
		}()
	}
	wg.Wait()
	return mergeSamples(perClient), time.Since(start)
}

func mergeSamples(perClient [][]sample) []sample {
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].op < all[j].op })
	return all
}

// phase runs w's traffic for about dur and returns its samples.
func (g *loadgen) phase(w workload, url string, dur time.Duration, minOps int) ([]sample, time.Duration) {
	if w.rate == 0 {
		return g.closedPhase(url, dur, minOps)
	}
	return g.openPhase(url, wholeCycles(dur, w.rate), w.rate)
}

// wholeCycles is how many open-loop operations fit in dur, rounded down
// to whole ingest cycles (at least one).
func wholeCycles(dur time.Duration, rate float64) int {
	n := int(dur.Seconds()*rate) / ingestCycle * ingestCycle
	if n < ingestCycle {
		n = ingestCycle
	}
	return n
}
