// Command maxbrserve is the long-lived MaxBRSTkNN query server: it serves
// one index, one shard of a split index, or a coordinator over shard
// servers over HTTP/JSON to any number of concurrent clients. Every mode
// is the same server (internal/server): a single index is a fleet of one
// in-process shard. A cohort cache (-sessions) keeps each user cohort's
// merged phase-1 thresholds, so repeated cohorts skip the expensive joint
// top-k phase.
//
// Serve a saved index file (the production mode — no rebuild on start):
//
//	maxbrserve -index ./data/index.mxbr -addr :8080
//
// Or build the index in memory from a datagen directory:
//
//	maxbrserve -data ./data -addr :8080
//
// Query it:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/maxbrstknn -d '{
//	  "users":[{"x":0.5,"y":0.5,"keywords":["sushi"]}],
//	  "locations":[[1.5,1.0],[3.5,2.0]],
//	  "keywords":["sushi","noodles"],
//	  "max_keywords":1, "k":1,
//	  "strategy":"exact", "parallel":{"workers":4}}'
//	curl -s localhost:8080/stats
//
// Sharded serving splits one dataset across processes. Each shard server
// re-derives the deterministic spatial plan from the shared dataset
// directory and builds only its slice:
//
//	maxbrserve -data ./data -shard 0/2 -addr :8081
//	maxbrserve -data ./data -shard 1/2 -addr :8082
//
// and a coordinator scatters the public query API across them (shard
// addresses in shard-id order):
//
//	maxbrserve -coordinator -shards localhost:8081,localhost:8082 -addr :8080
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, then
// in-flight requests get -drain to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/indexutil"
	"repro/internal/server"
	"repro/internal/shardplan"
	"repro/internal/vocab"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		indexPath = flag.String("index", "", "saved index file (from `maxbrstknn build`)")
		dataDir   = flag.String("data", "", "directory holding objects.txt (build in memory instead of -index)")
		inflight  = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = 4×GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		sessions  = flag.Int("sessions", 64, "cohort-cache capacity in user cohorts (negative = unbounded)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")

		shardSpec    = flag.String("shard", "", "serve one shard of a sharded deployment: i/N (requires -data; the spatial plan is re-derived from the dataset)")
		coordinator  = flag.Bool("coordinator", false, "run as a scatter-gather coordinator over -shards instead of serving an index")
		shardAddrs   = flag.String("shards", "", "comma-separated shard server addresses in shard-id order (coordinator mode)")
		shardTimeout = flag.Duration("shard-timeout", 10*time.Second, "per-shard call timeout (coordinator mode)")
	)
	flag.Parse()

	srv, banner, cleanup, err := buildServing(options{
		addr: *addr, indexPath: *indexPath, dataDir: *dataDir,
		inflight: *inflight, timeout: *timeout, sessions: *sessions,
		shardSpec: *shardSpec, coordinator: *coordinator, shardAddrs: *shardAddrs,
		shardTimeout: *shardTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cleanup()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		fmt.Println(banner)
		done <- srv.ListenAndServe()
	}()

	select {
	case sig := <-stop:
		fmt.Printf("maxbrserve: %v, draining for up to %s\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "maxbrserve: shutdown: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("maxbrserve: drained cleanly")
	case err := <-done:
		fmt.Fprintf(os.Stderr, "maxbrserve: %v\n", err)
		os.Exit(1)
	}
}

// options collects the parsed flags so mode selection is testable logic,
// not flag plumbing.
type options struct {
	addr, indexPath, dataDir string
	inflight, sessions       int
	timeout                  time.Duration
	shardSpec                string
	coordinator              bool
	shardAddrs               string
	shardTimeout             time.Duration
}

// buildServing picks and constructs the serving mode: coordinator, shard
// server, or the classic single-index server. cleanup releases whatever
// index the mode opened.
func buildServing(o options) (srv *server.Server, banner string, cleanup func() error, err error) {
	cfg := server.Config{
		Addr:            o.addr,
		MaxInFlight:     o.inflight,
		RequestTimeout:  o.timeout,
		SessionCapacity: o.sessions,
	}
	switch {
	case o.coordinator:
		if o.indexPath != "" || o.dataDir != "" || o.shardSpec != "" {
			return nil, "", nil, fmt.Errorf("maxbrserve: -coordinator serves no index (drop -index/-data/-shard)")
		}
		addrs := splitAddrs(o.shardAddrs)
		if len(addrs) == 0 {
			return nil, "", nil, fmt.Errorf("maxbrserve: -coordinator requires -shards host1,host2,... in shard-id order")
		}
		c, err := server.NewCoordinator(server.CoordinatorConfig{Config: cfg, Shards: addrs, ShardTimeout: o.shardTimeout})
		if err != nil {
			return nil, "", nil, err
		}
		return c, fmt.Sprintf("maxbrserve: coordinating %d shards on %s", len(addrs), o.addr),
			func() error { return nil }, nil

	case o.shardSpec != "":
		if o.dataDir == "" {
			return nil, "", nil, fmt.Errorf("maxbrserve: -shard requires -data (every shard re-derives the plan from the shared dataset)")
		}
		if o.indexPath != "" {
			return nil, "", nil, fmt.Errorf("maxbrserve: -shard builds in memory; it cannot serve a saved -index")
		}
		id, total, err := parseShardSpec(o.shardSpec)
		if err != nil {
			return nil, "", nil, err
		}
		six, err := buildShard(o.dataDir, id, total)
		if err != nil {
			return nil, "", nil, err
		}
		return server.NewShard(six, id, total, cfg),
			fmt.Sprintf("maxbrserve: serving shard %d/%d (%d objects) on %s", id, total, six.NumObjects(), o.addr),
			six.Close, nil

	default:
		idx, err := openIndex(o.indexPath, o.dataDir)
		if err != nil {
			return nil, "", nil, err
		}
		return server.New(idx, cfg),
			fmt.Sprintf("maxbrserve: serving %d objects on %s", idx.NumObjects(), o.addr),
			idx.Close, nil
	}
}

// parseShardSpec parses "-shard i/N".
func parseShardSpec(spec string) (id, total int, err error) {
	idStr, totalStr, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("maxbrserve: -shard wants i/N, got %q", spec)
	}
	id, err = strconv.Atoi(idStr)
	if err != nil {
		return 0, 0, fmt.Errorf("maxbrserve: -shard wants i/N, got %q", spec)
	}
	total, err = strconv.Atoi(totalStr)
	if err != nil {
		return 0, 0, fmt.Errorf("maxbrserve: -shard wants i/N, got %q", spec)
	}
	if total <= 0 || id < 0 || id >= total {
		return 0, 0, fmt.Errorf("maxbrserve: shard %d/%d out of range", id, total)
	}
	return id, total, nil
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// buildShard reads the shared dataset, re-derives the deterministic
// spatial plan, and builds only this process's slice under the frozen
// global corpus — no plan file, no global index build.
func buildShard(dir string, id, total int) (*maxbrstknn.ShardIndex, error) {
	ds, err := readDataset(dir)
	if err != nil {
		return nil, err
	}
	opts := maxbrstknn.Options{}
	fc, err := maxbrstknn.FrozenCorpusOf(ds, opts)
	if err != nil {
		return nil, err
	}
	p, err := shardplan.Split(ds, total)
	if err != nil {
		return nil, err
	}
	return shardplan.BuildShard(ds, p, id, fc, opts)
}

// openIndex loads a saved index file, or builds one in memory from a
// datagen directory when -data is given instead.
func openIndex(indexPath, dataDir string) (*maxbrstknn.Index, error) {
	switch {
	case indexPath != "" && dataDir != "":
		return nil, fmt.Errorf("maxbrserve: pass -index or -data, not both")
	case indexPath != "":
		return maxbrstknn.Load(indexPath)
	case dataDir != "":
		ds, err := readDataset(dataDir)
		if err != nil {
			return nil, err
		}
		return indexutil.BuilderFromDataset(ds).Build(maxbrstknn.Options{})
	default:
		return nil, fmt.Errorf("maxbrserve: -index <file.mxbr> or -data <dir> required")
	}
}

func readDataset(dir string) (*dataset.Dataset, error) {
	f, err := os.Open(filepath.Join(dir, "objects.txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadObjects(f, vocab.New())
}
