// Restaurant placement — the paper's Example 2 at city scale.
//
// A restaurateur scouting a city wants the street corner and the menu
// (at most ws dishes) that make the new restaurant a top-k choice for the
// most residents, given the existing competition. This example generates a
// synthetic city of restaurants and residents, runs all three strategies,
// and compares their answers and runtimes.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	maxbrstknn "repro"
)

var dishes = []string{
	"sushi", "seafood", "noodles", "pizza", "burger", "tacos",
	"curry", "ramen", "salad", "steak", "dumplings", "pho",
}

func main() {
	rng := rand.New(rand.NewSource(42))

	// The competition: 400 restaurants clustered around 5 food districts.
	centers := [][2]float64{{2, 2}, {8, 3}, {5, 5}, {2, 8}, {8, 8}}
	b := maxbrstknn.NewBuilder()
	for i := 0; i < 400; i++ {
		c := centers[rng.Intn(len(centers))]
		menu := make([]string, 1+rng.Intn(3))
		for j := range menu {
			menu[j] = dishes[rng.Intn(len(dishes))]
		}
		b.AddObject(c[0]+float64(rng.NormFloat64()*0.8), c[1]+float64(rng.NormFloat64()*0.8), menu...)
	}
	idx, err := b.Build(maxbrstknn.Options{Measure: maxbrstknn.LanguageModel})
	if err != nil {
		log.Fatal(err)
	}

	// Residents with food preferences.
	users := make([]maxbrstknn.UserSpec, 300)
	for i := range users {
		c := centers[rng.Intn(len(centers))]
		prefs := []string{dishes[rng.Intn(len(dishes))]}
		if rng.Intn(2) == 0 {
			prefs = append(prefs, dishes[rng.Intn(len(dishes))])
		}
		users[i] = maxbrstknn.UserSpec{
			X: c[0] + rng.NormFloat64(), Y: c[1] + rng.NormFloat64(), Keywords: prefs,
		}
	}

	// Available lots across the city.
	locations := make([][2]float64, 12)
	for i := range locations {
		locations[i] = [2]float64{rng.Float64() * 10, rng.Float64() * 10}
	}

	req := maxbrstknn.Request{
		Users:       users,
		Locations:   locations,
		Keywords:    dishes,
		MaxKeywords: 3,
		K:           3, // "a top-3 restaurant"
	}

	session, err := idx.NewSession(users, req.K)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	for _, strat := range []maxbrstknn.Strategy{maxbrstknn.Exact, maxbrstknn.Approx, maxbrstknn.UserIndexed} {
		req.Strategy = strat
		start := time.Now()
		var res maxbrstknn.Result
		if strat == maxbrstknn.UserIndexed {
			// user-indexed runs its own threshold computation
			res, err = idx.MaxBRSTkNN(req)
		} else {
			res, err = session.Run(req)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s lot #%-2d  menu %-28s reaches %3d residents  (%.1f ms)\n",
			strat, res.LocationIndex, strings.Join(res.Keywords, "+"), res.Count(),
			float64(time.Since(start).Microseconds())/1000)
		if strat == maxbrstknn.UserIndexed && res.Stats.TotalUsers > 0 {
			fmt.Printf("%-12s top-k avoided for %.1f%% of residents\n", "", res.Stats.PrunedPercent)
		}
	}
}
