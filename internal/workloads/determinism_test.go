package workloads

import (
	"fmt"
	"testing"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/simnet"
)

// TestPageRankSparkSeedsRepeatJCT pins the simulator's seed determinism on
// seeds whose reducer-locality decision once hinged on the last bits of a
// float sum taken in map-iteration order: each seed must repeat its
// modeled JCT and cross-DC bytes exactly, run after run, in one process.
func TestPageRankSparkSeedsRepeatJCT(t *testing.T) {
	if testing.Short() {
		t.Skip("runs PageRank at Table I scale 40 times")
	}
	const runs = 20
	for _, seed := range []int64{157, 185} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			var jct, crossDC float64
			for i := 0; i < runs; i++ {
				ctx := core.NewContext(core.Config{
					Seed:   seed,
					Scheme: core.SchemeSpark,
					Exec:   exec.Config{Net: simnet.Config{JitterAmplitude: 0.25}},
				})
				inst := PageRank().Make(ctx, Options{Seed: seed})
				rep, err := ctx.Save(inst.Target)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if i == 0 {
					jct, crossDC = rep.JCT, rep.CrossDCBytes
					continue
				}
				if rep.JCT != jct || rep.CrossDCBytes != crossDC {
					t.Fatalf("run %d: JCT %v bytes %v, first run JCT %v bytes %v",
						i, rep.JCT, rep.CrossDCBytes, jct, crossDC)
				}
			}
		})
	}
}
