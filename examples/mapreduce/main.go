// Mapreduce demonstrates the paper's §III.I claim: distributed structured
// arrays plus the distributed function interface are "the fundamental
// components for parallel Map-Reduce style computations". Synthetic order
// records are distributed by rows, filtered (map), shuffled by key hash,
// and aggregated (reduce), all through the table API.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/table"
)

func main() {
	ranks := flag.Int("ranks", 4, "number of simulated MPI ranks")
	rows := flag.Int("rows", 100_000, "total synthetic order records")
	flag.Parse()

	regions := []string{"north", "south", "east", "west", "central"}

	err := comm.Run(*ranks, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		t := table.New(ctx, []table.Column{
			{Name: "region", Kind: table.String},
			{Name: "units", Kind: table.Int},
			{Name: "revenue", Kind: table.Float},
		})
		// Each rank generates its share of the global data set
		// deterministically (row i lives on rank i mod P).
		for i := 0; i < *rows; i++ {
			if i%c.Size() != c.Rank() {
				continue
			}
			rng := rand.New(rand.NewSource(int64(i)))
			region := regions[rng.Intn(len(regions))]
			units := 1 + rng.Intn(20)
			t.AppendRow(region, units, float64(units)*(5+10*rng.Float64()))
		}

		total := t.NumRowsGlobal()
		revenue := t.SumFloat("revenue")

		// Map: keep only large orders.
		big := t.Filter(func(r table.Row) bool { return r.Int("units") >= 15 })
		// Shuffle + reduce: revenue by region.
		byRegion := big.GroupReduce("region", "revenue", table.AggSum)
		counts := big.GroupReduce("region", "revenue", table.AggCount)

		keys, sums := byRegion.GatherRows("region", "sum")
		_, cnts := counts.GatherRows("region", "count")
		nBig := big.NumRowsGlobal() // collective: run on every rank
		if c.Rank() == 0 {
			fmt.Printf("records         : %d on %d ranks\n", total, c.Size())
			fmt.Printf("total revenue   : %.2f\n", revenue)
			fmt.Printf("large orders    : %d\n", nBig)
			fmt.Printf("%-10s %14s %10s\n", "region", "revenue", "orders")
			for i, k := range keys {
				fmt.Printf("%-10s %14.2f %10.0f\n", k, sums[i], cnts[i])
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
