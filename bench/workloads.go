package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/indexutil"
)

// Request and response bodies are the benchmark's own structs with the
// JSON tags the server documents, so a refactor of the server's wire
// types cannot silently change what the benchmark sends.

type userJSON struct {
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords,omitempty"`
}

type parallelJSON struct {
	Workers int `json:"workers,omitempty"`
}

type queryJSON struct {
	Users       []userJSON   `json:"users"`
	Locations   [][2]float64 `json:"locations"`
	Keywords    []string     `json:"keywords"`
	MaxKeywords int          `json:"max_keywords"`
	K           int          `json:"k"`
	Strategy    string       `json:"strategy"`
	Parallel    parallelJSON `json:"parallel"`
	L           int          `json:"l,omitempty"`
}

type topkJSON struct {
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords,omitempty"`
	K        int      `json:"k"`
}

// objectJSON is the body of /add (ID unset) and /update.
type objectJSON struct {
	ID       *int     `json:"id,omitempty"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords,omitempty"`
}

type deleteJSON struct {
	ID int `json:"id"`
}

// mutationJSON is what /add, /update and /delete answer with.
type mutationJSON struct {
	ID          int    `json:"id"`
	Epoch       uint64 `json:"epoch"`
	LiveObjects int    `json:"live_objects"`
}

// topkAnswerJSON is the part of a /topk answer verification reads.
type topkAnswerJSON struct {
	Results []struct {
		ObjectID int `json:"object_id"`
	} `json:"results"`
}

// op is one pre-marshalled operation of a workload's schedule.
type op struct {
	kind   string // endpoint without the slash: maxbrstknn, topl, topk, add, update, delete
	body   []byte
	cohort int // which repeating cohort the users are; -1 when never seen again
	sender int // open loop: the sender that issues it
}

func (o op) write() bool { return o.kind == "add" || o.kind == "update" || o.kind == "delete" }

const (
	topologySingle  = "single"  // one server over an in-memory index
	topologySharded = "sharded" // coordinator + shard servers
	topologyFile    = "file"    // one server over a saved and re-loaded index

	queryK         = 10
	queryLocations = 50
	queryKeywords  = 20

	// ingestCycle is the open-loop schedule's period: three blocks of
	// four reads and one mutation (add, then update of that object, then
	// delete of the replacement). Phases are whole cycles, so the live
	// object count is the built count at every phase boundary. Writes
	// are a fifth of the operations and updates, the dearest of them, a
	// fifteenth, so that p95 falls inside the updates' latencies and not
	// on the cliff between two kinds of operation.
	ingestCycle = 15
	ingestRate  = 75 // offered operations per second
	// ingestSenders is how many connections share the open-loop schedule:
	// enough that a sender is all but never still busy when its next
	// operation falls due (loadgen.late_share says how often it was).
	ingestSenders = 4
)

// workload is one named traffic mix against one topology.
type workload struct {
	name     string
	topology string
	shards   int
	clients  int
	rate     float64 // open-loop offered rate; 0 means closed loop
	// minWarmOps keeps the warm-up going until this many operations have
	// completed, however long the clock says it has run.
	minWarmOps int
	objects    func(sc scale) int
	// opsPerSec sizes the pre-marshalled schedule of a closed loop; a
	// loop that outruns it ends its window early.
	opsPerSec func(sc scale) int
	gen       func(ds *dataset.Dataset, seed int64, n int) ([]op, error)
}

var workloads = []workload{
	{
		name: "cohort-fresh", topology: topologySingle, clients: 2,
		objects:   func(sc scale) int { return sc.objects },
		opsPerSec: func(sc scale) int { return sc.freshOpsPerSec },
		gen:       genFresh,
	},
	{
		name: "cohort-repeat", topology: topologySingle, clients: 1, minWarmOps: 2 * repeatCohorts,
		objects:   func(sc scale) int { return sc.objects },
		opsPerSec: func(sc scale) int { return sc.repeatOpsPerSec },
		gen:       genRepeat,
	},
	{
		name: "sharded-fresh", topology: topologySharded, shards: 2, clients: 2,
		objects:   func(sc scale) int { return sc.objects },
		opsPerSec: func(sc scale) int { return sc.freshOpsPerSec },
		gen:       genFresh,
	},
	{
		name: "topk-ingest", topology: topologyFile, clients: ingestSenders, rate: ingestRate,
		objects: func(sc scale) int { return sc.ingestObjects },
		gen:     genIngest,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scale sizes a run; quick is the smoke-test size.
type scale struct {
	objects, ingestObjects          int
	freshOpsPerSec, repeatOpsPerSec int
	warmup                          time.Duration
	setups                          int // rounds per untraced run: each is a set-up and a share of the window
	replayOps                       int // traced sequential replay, cohort workloads
	replayCycles                    int // traced sequential replay, topk-ingest
	verifySamples                   int // answers re-checked against the library, per run
	digestOps                       int
}

var (
	fullScale = scale{
		objects: 100000, ingestObjects: 20000,
		freshOpsPerSec: 150, repeatOpsPerSec: 200,
		warmup: time.Second, setups: 4,
		replayOps: 64, replayCycles: 12,
		verifySamples: 32, digestOps: 128,
	}
	quickScale = scale{
		objects: 2000, ingestObjects: 2000,
		freshOpsPerSec: 2500, repeatOpsPerSec: 2500,
		warmup: 100 * time.Millisecond, setups: 2,
		replayOps: 8, replayCycles: 1,
		verifySamples: 4, digestOps: 8,
	}
)

// datasetSeed is the dataset generator's seed, the same for every run:
// where a dataset's 32 hot-spots happen to land moves latency more than
// the traffic drawn over them does (ten --seed values that each brought a
// dataset of their own spread cohort-fresh p95 by 18 %, ten over one
// dataset by 6 %), so --seed varies the traffic over one dataset.
const datasetSeed = 1

func generateDataset(n int) *dataset.Dataset {
	cfg := dataset.DefaultFlickrConfig(n)
	cfg.Seed = datasetSeed
	return dataset.GenerateFlickr(cfg)
}

func usersJSON(ds *dataset.Dataset, users []dataset.User) []userJSON {
	specs := indexutil.UserSpecs(ds.Vocab, users)
	out := make([]userJSON, len(specs))
	for i, u := range specs {
		out[i] = userJSON{X: u.X, Y: u.Y, Keywords: u.Keywords}
	}
	return out
}

func keywordStrings(ds *dataset.Dataset, us dataset.UserSet) []string {
	out := make([]string, len(us.Keywords))
	for i, t := range us.Keywords {
		out[i] = ds.Vocab.Term(t)
	}
	return out
}

func candidateLocations(us dataset.UserSet, seed int64) [][2]float64 {
	pts := dataset.CandidateLocations(us.Region, queryLocations, 0.5, seed)
	out := make([][2]float64, len(pts))
	for i, p := range pts {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

// genFresh is the schedule of cohort-fresh and sharded-fresh: every
// request brings a 16-user cohort the server has never seen, confined
// to a 2×2 sub-area, so every request pays phase 1.
func genFresh(ds *dataset.Dataset, seed int64, n int) ([]op, error) {
	ops := make([]op, n)
	for i := range ops {
		s := seed*1000003 + int64(i)
		us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 16, UL: 3, UW: queryKeywords, Area: 2, Seed: s})
		body, err := json.Marshal(queryJSON{
			Users: usersJSON(ds, us.Users), Locations: candidateLocations(us, s),
			Keywords: keywordStrings(ds, us), MaxKeywords: 3, K: queryK, Strategy: "approx",
		})
		if err != nil {
			return nil, err
		}
		ops[i] = op{kind: "maxbrstknn", body: body, cohort: -1}
	}
	return ops, nil
}

const repeatCohorts = 8

// genRepeat is the provider workload: eight 64-user cohorts take turns,
// each request scouting a fresh candidate set for a cohort whose session
// the server already holds, so phase 2 is all the work there is.
func genRepeat(ds *dataset.Dataset, seed int64, n int) ([]op, error) {
	type cohort struct {
		us    dataset.UserSet
		users []userJSON
		pool  []string
	}
	cohorts := make([]cohort, repeatCohorts)
	for c := range cohorts {
		us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 64, UL: 3, UW: 2 * queryKeywords, Area: 5, Seed: seed*7919 + int64(c)})
		cohorts[c] = cohort{us: us, users: usersJSON(ds, us.Users), pool: keywordStrings(ds, us)}
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		c := cohorts[i%repeatCohorts]
		kws := make([]string, 0, queryKeywords)
		for _, j := range rng.Perm(len(c.pool)) {
			if len(kws) == queryKeywords {
				break
			}
			kws = append(kws, c.pool[j])
		}
		q := queryJSON{
			Users: c.users, Locations: candidateLocations(c.us, seed*1000003+int64(i)),
			Keywords: kws, MaxKeywords: 2, K: queryK, Strategy: "exact",
			Parallel: parallelJSON{Workers: 2},
		}
		kind := "maxbrstknn"
		if i%5 == 4 {
			kind, q.L = "topl", 3
		}
		body, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		ops[i] = op{kind: kind, body: body, cohort: i % repeatCohorts}
	}
	return ops, nil
}

// genIngest is the open-loop schedule of topk-ingest: point reads from
// users all over the space beside a trickle of writes. Object ids are
// allocated in order, so the id each /update and /delete names is known
// when the bodies are marshalled, provided mutations run in schedule
// order — which they do, because sender 0 issues all of them.
func genIngest(ds *dataset.Dataset, seed int64, n int) ([]op, error) {
	if n%ingestCycle != 0 {
		return nil, fmt.Errorf("ingest schedule of %d operations is not whole cycles of %d", n, ingestCycle)
	}
	reads := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: n, UL: 3, UW: 200, Area: 1000, Seed: seed})
	readers := usersJSON(ds, reads.Users)
	rng := rand.New(rand.NewSource(seed))
	randomObject := func(id *int) objectJSON {
		at := ds.Objects[rng.Intn(len(ds.Objects))].Loc
		text := ds.Objects[rng.Intn(len(ds.Objects))].Doc
		return objectJSON{ID: id, X: at.X + rng.NormFloat64()*0.1, Y: at.Y + rng.NormFloat64()*0.1,
			Keywords: indexutil.KeywordStrings(ds.Vocab, text)}
	}
	nextID := len(ds.Objects)
	ops := make([]op, n)
	for i := range ops {
		var (
			o    op
			body any
		)
		switch {
		case i%5 < 4:
			u := readers[i]
			body = topkJSON{X: u.X, Y: u.Y, Keywords: u.Keywords, K: queryK}
			// Sender 0 is kept for the writes, so that no read queues
			// behind one on the client's side.
			o = op{kind: "topk", sender: 1 + i%(ingestSenders-1)}
		case i%ingestCycle == 4:
			o, body = op{kind: "add"}, randomObject(nil)
			nextID++
		case i%ingestCycle == 9:
			id := nextID - 1
			o, body = op{kind: "update"}, randomObject(&id)
			nextID++
		default:
			o, body = op{kind: "delete"}, deleteJSON{ID: nextID - 1}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		o.body, o.cohort = b, -1
		ops[i] = o
	}
	return ops, nil
}
