// Joint top-k — the paper's "independent interest" contribution
// (Section 5) in isolation.
//
// Computing the top-k spatial-textual objects for a batch of users one at
// a time re-reads the same index pages over and over. The joint algorithm
// groups the batch behind a super-user, traverses the MIR-tree once, and
// refines per user in memory. This example measures both on the same
// workload and prints the simulated-I/O ratio.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	maxbrstknn "repro"
)

var topics = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

func main() {
	rng := rand.New(rand.NewSource(99))

	b := maxbrstknn.NewBuilder()
	for i := 0; i < 3000; i++ {
		kws := []string{topics[rng.Intn(len(topics))], topics[rng.Intn(len(topics))]}
		b.AddObject(rng.Float64()*50, rng.Float64()*50, kws...)
	}
	// This example demonstrates the paper's simulated-I/O comparison, so
	// disable the decoded-object cache: with it on (the default), repeat
	// visits charge no I/O and both counters below would collapse to the
	// first traversal's charges.
	idx, err := b.Build(maxbrstknn.Options{DecodedCacheBytes: -1})
	if err != nil {
		log.Fatal(err)
	}

	users := make([]maxbrstknn.UserSpec, 250)
	for i := range users {
		users[i] = maxbrstknn.UserSpec{
			X: 20 + float64(rng.Float64()*10), Y: 20 + float64(rng.Float64()*10),
			Keywords: []string{topics[rng.Intn(len(topics))]},
		}
	}
	const k = 10

	// One at a time.
	idx.ResetIO()
	start := time.Now()
	for _, u := range users {
		if _, err := idx.TopK(u.X, u.Y, u.Keywords, k); err != nil {
			log.Fatal(err)
		}
	}
	soloMs := float64(time.Since(start).Microseconds()) / 1000
	soloIO := idx.SimulatedIO()

	// Jointly: one shared traversal computes every user's top-k.
	session, err := idx.NewUnpreparedSession(users, k)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	idx.ResetIO()
	start = time.Now()
	joint, err := session.Phase1(nil, maxbrstknn.ParallelOptions{})
	if err != nil {
		log.Fatal(err)
	}
	all := joint.PerUser
	jointMs := float64(time.Since(start).Microseconds()) / 1000
	jointIO := idx.SimulatedIO()

	fmt.Printf("users=%d, k=%d, objects=%d\n", len(users), k, idx.NumObjects())
	fmt.Printf("per-user: %8.1f ms  %6d simulated I/O\n", soloMs, soloIO)
	fmt.Printf("joint:    %8.1f ms  %6d simulated I/O  (%.1fx less I/O)\n",
		jointMs, jointIO, float64(soloIO)/float64(jointIO))

	// Spot-check agreement on one user.
	u := users[0]
	solo, err := idx.TopK(u.X, u.Y, u.Keywords, k)
	if err != nil {
		log.Fatal(err)
	}
	agree := len(solo) == len(all[0])
	for i := range solo {
		if agree && solo[i].Score != all[0][i].Score {
			agree = false
		}
	}
	fmt.Printf("user 0 results agree between methods: %v\n", agree)
}
