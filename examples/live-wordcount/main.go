// Live WordCount: the same fetch-vs-push shuffle comparison, but over a
// real miniature cluster — worker goroutines with genuine TCP data planes
// on the loopback interface, not the discrete-event simulator.
//
// This demonstrates that Push/Aggregate is an executable system design:
// the job chains two shuffles (count words, then regroup the counts by
// frequency bucket), and under push mode every mapper ships its combined
// output to a per-shuffle aggregator worker — chosen automatically by the
// planner's Eq. (2) rank over the map-output sizes measured on the wire —
// the moment it finishes. Watch the per-worker shard counts and the chosen
// aggregators; connection reuse means fetches and pushes far outnumber
// TCP dials.
//
//	go run ./examples/live-wordcount
package main

import (
	"fmt"
	"os"
	"strings"

	"wanshuffle/internal/livecluster"
	"wanshuffle/internal/rdd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "live-wordcount:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, mode := range []livecluster.Mode{livecluster.ModeFetch, livecluster.ModePush} {
		cluster, err := livecluster.New(livecluster.Config{
			Workers: 4,
			Mode:    mode,
			// No Aggregators pin: push mode picks each shuffle's
			// aggregator from measured map-output sizes.
		})
		if err != nil {
			return err
		}
		out, stats, err := cluster.Run(buildJob())
		cluster.Close()
		if err != nil {
			return err
		}
		fmt.Printf("[%s] %d buckets, %d bytes over TCP, %d pushes, %d fetches, %d dials\n",
			mode, len(out), stats.BytesOverTCP, stats.PushConnections, stats.FetchConnections, stats.Dials)
		fmt.Printf("      map output per worker after the map phases: %v\n", stats.ShardsByWorker)
		for id, sites := range stats.AggregatorsByShuffle {
			fmt.Printf("      shuffle %d aggregated at worker(s) %v\n", id, sites)
		}
	}
	return nil
}

// buildJob chains two shuffles: classic word count, then a regroup of the
// counts by order of magnitude — a shape the pre-planner live cluster
// could not execute.
func buildJob() *rdd.RDD {
	g := rdd.NewGraph()
	inputs := make([]rdd.InputPartition, 8)
	for p := range inputs {
		var recs []rdd.Pair
		for i := 0; i < 60; i++ {
			recs = append(recs, rdd.KV(
				fmt.Sprintf("line-%d-%d", p, i),
				fmt.Sprintf("wide area data analytics shuffle-%d push aggregate", (p*i)%11),
			))
		}
		inputs[p] = rdd.InputPartition{Host: 0, ModeledBytes: 1, Records: recs}
	}
	words := g.Input("text", inputs).FlatMap("split", func(p rdd.Pair) []rdd.Pair {
		fields := strings.Fields(p.Value.(string))
		out := make([]rdd.Pair, len(fields))
		for i, w := range fields {
			out[i] = rdd.KV(w, 1)
		}
		return out
	})
	counts := words.ReduceByKey("count", 4, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})
	return counts.
		KeyBy("bucket", func(p rdd.Pair) string {
			return fmt.Sprintf("~10^%d", len(fmt.Sprint(p.Value.(int)))-1)
		}).
		GroupByKey("byMagnitude", 3).
		MapValues("size", func(v rdd.Value) rdd.Value { return len(v.([]rdd.Value)) })
}
