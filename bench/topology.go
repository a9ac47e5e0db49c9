package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/indexutil"
	"repro/internal/server"
	"repro/internal/shardplan"
)

// listener is one in-process HTTP server on a loopback port: a goroutine,
// never a child process, so nothing can outlive the benchmark.
type listener struct {
	url  string
	port int
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		url:  "http://" + ln.Addr().String(),
		port: ln.Addr().(*net.TCPAddr).Port,
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return l, nil
}

// close stops the listener and waits for its goroutine; requests still
// in flight get five seconds before their connections are cut.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, l.srv.Close())
	}
	<-l.done
	return err
}

// wrapFunc lets a traced run put its middleware around every handler;
// layer is "server", "coordinator" or "shard".
type wrapFunc func(layer string, h http.Handler) http.Handler

func noWrap(_ string, h http.Handler) http.Handler { return h }

// fleet is the set of listeners that answer one public URL.
type fleet struct {
	url       string
	listeners []*listener
	shardHTTP *http.Transport // the coordinator's connections to its shards
}

func (f *fleet) close() error {
	var errs []error
	// Front to back, so no request is cut off mid-scatter.
	for _, l := range f.listeners {
		errs = append(errs, l.close())
	}
	if f.shardHTTP != nil {
		f.shardHTTP.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

func (f *fleet) ports() []int {
	out := make([]int, len(f.listeners))
	for i, l := range f.listeners {
		out[i] = l.port
	}
	return out
}

// healthy fails unless every listener of the fleet answers /healthz.
func (f *fleet) healthy() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	probe := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	for _, l := range f.listeners {
		resp, err := probe.Get(l.url + "/healthz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s/healthz: status %d", l.url, resp.StatusCode)
		}
	}
	return nil
}

func serveSingle(idx *maxbrstknn.Index, wrap wrapFunc) (*fleet, error) {
	l, err := serve(wrap("server", server.New(idx, server.Config{}).Handler()))
	if err != nil {
		return nil, err
	}
	return &fleet{url: l.url, listeners: []*listener{l}}, nil
}

// serveSharded starts one shard server per index and a coordinator in
// front of them, bound forwarding on — the topology of
// internal/experiments/serving/sharded.go.
func serveSharded(shards []*maxbrstknn.ShardIndex, wrap wrapFunc) (*fleet, error) {
	f := &fleet{shardHTTP: http.DefaultTransport.(*http.Transport).Clone()}
	urls := make([]string, len(shards))
	for s, six := range shards {
		l, err := serve(wrap("shard", server.NewShard(six, s, len(shards), server.Config{}).Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.listeners = append(f.listeners, l)
		urls[s] = l.url
	}
	coord, err := server.NewCoordinator(server.CoordinatorConfig{Shards: urls, Client: &http.Client{Transport: f.shardHTTP}})
	if err != nil {
		f.close()
		return nil, err
	}
	l, err := serve(wrap("coordinator", coord.Handler()))
	if err != nil {
		f.close()
		return nil, err
	}
	f.listeners = append([]*listener{l}, f.listeners...)
	f.url = l.url
	return f, nil
}

// system is a workload's system under test, set up and answering.
type system struct {
	fleet *fleet
	// oracle is the whole index: what the single server serves, and what
	// verification re-answers requests on. The sharded fleet keeps it
	// too, because the frozen corpus comes from it.
	oracle *maxbrstknn.Index
	shards []*maxbrstknn.ShardIndex
	file   string // the saved index of the file-backed topology
	// spans are the set-up steps' durations in seconds, keyed by the
	// per-layer metric that reports them.
	spans map[string]float64
	total time.Duration
}

// served lists the indexes that answer traffic: their cache and read
// counters are the storage layer's.
func (s *system) served() []*maxbrstknn.Index {
	if len(s.shards) == 0 {
		return []*maxbrstknn.Index{s.oracle}
	}
	out := make([]*maxbrstknn.Index, len(s.shards))
	for i, six := range s.shards {
		out[i] = six.Index
	}
	return out
}

// close is safe on a system whose set-up failed half way.
func (s *system) close() error {
	var errs []error
	if s.fleet != nil {
		errs = append(errs, s.fleet.close())
	}
	if s.oracle != nil {
		errs = append(errs, s.oracle.Close())
	}
	for _, six := range s.shards {
		errs = append(errs, six.Close())
	}
	if s.file != "" {
		errs = append(errs, os.Remove(s.file))
	}
	return errors.Join(errs...)
}

// fileLoadOptions makes the file-backed working set miss: a 20k-object
// index decodes to about 7 MB, against a 1 MiB decoded cache and a
// 256-record buffer pool.
var fileLoadOptions = maxbrstknn.LoadOptions{CacheCapacity: 256, DecodedCacheBytes: 1 << 20}

// setUp builds w's system from the dataset in memory and returns once
// every server answers /healthz; the time that takes is setup_s.
func setUp(w workload, ds *dataset.Dataset, dir string, wrap wrapFunc) (*system, error) {
	s := &system{spans: map[string]float64{}}
	start := time.Now()
	if err := s.start(w, ds, dir, wrap); err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.total = time.Since(start)
	return s, nil
}

// step times one set-up call into the span named after the per-layer
// metric that reports it.
func (s *system) step(name string, f func() error) error {
	t := time.Now()
	err := f()
	s.spans[name] += time.Since(t).Seconds()
	return err
}

func (s *system) start(w workload, ds *dataset.Dataset, dir string, wrap wrapFunc) error {
	err := s.step("build.index_s", func() (err error) {
		s.oracle, err = indexutil.BuilderFromDataset(ds).Build(maxbrstknn.Options{})
		return err
	})
	if err != nil {
		return err
	}
	switch w.topology {
	case topologySingle:
		s.fleet, err = serveSingle(s.oracle, wrap)
	case topologyFile:
		s.file = filepath.Join(dir, "index.mxbr")
		if err := s.step("persist.save_s", func() error { return s.oracle.Save(s.file) }); err != nil {
			return err
		}
		s.oracle.Close()
		err = s.step("persist.load_s", func() (err error) {
			s.oracle, err = maxbrstknn.LoadWithOptions(s.file, fileLoadOptions)
			return err
		})
		if err != nil {
			return err
		}
		s.fleet, err = serveSingle(s.oracle, wrap)
	case topologySharded:
		// The frozen corpus comes from the built index, not from the raw
		// dataset: only the index's densified vocabulary matches the
		// term-id order the single index scores and breaks ties under.
		var plan *shardplan.Plan
		var fc maxbrstknn.FrozenCorpus
		err = s.step("shardplan.split_s", func() (err error) {
			fc = s.oracle.FrozenCorpus()
			plan, err = shardplan.Split(ds, w.shards)
			return err
		})
		if err != nil {
			return err
		}
		err = s.step("shardplan.build_shards_s", func() error {
			for i := 0; i < w.shards; i++ {
				six, err := shardplan.BuildShard(ds, plan, i, fc, maxbrstknn.Options{})
				if err != nil {
					return err
				}
				s.shards = append(s.shards, six)
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.fleet, err = serveSharded(s.shards, wrap)
	default:
		err = fmt.Errorf("unknown topology %q", w.topology)
	}
	if err != nil {
		return err
	}
	return s.fleet.healthy()
}

// twin starts a second, never-traced instance of s's topology: its own
// servers (so its own session caches) over the same indexes, or over
// its own load of the same file where caches belong to the index. A
// traced run sends the replayed operations to both to price the tracing.
// The twin holds only what it created, so closing it leaves s intact.
func (s *system) twin() (*system, error) {
	t := &system{}
	var err error
	switch {
	case s.file != "":
		if t.oracle, err = maxbrstknn.LoadWithOptions(s.file, fileLoadOptions); err == nil {
			t.fleet, err = serveSingle(t.oracle, noWrap)
		}
	case len(s.shards) > 0:
		t.fleet, err = serveSharded(s.shards, noWrap)
	default:
		t.fleet, err = serveSingle(s.oracle, noWrap)
	}
	if err != nil {
		return nil, errors.Join(err, t.close())
	}
	return t, nil
}
