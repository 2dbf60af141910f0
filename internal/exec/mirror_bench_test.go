package exec_test

import (
	"testing"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/simnet"
	"wanshuffle/internal/workloads"
)

// BenchmarkSimDeliveryMirror prices the simulator's per-delivery metrics
// mirror on one Fig. 7 cell at Table I scale: PageRank under Spark, the
// cell with the most simulated deliveries, configured as the Fig. 7
// sweep configures it. The observed side runs the engine as built; the
// unobserved side removes its delivery observer, so the gap is what
// keeping bytes_moved_total / bytes_cross_dc_total live costs.
func BenchmarkSimDeliveryMirror(b *testing.B) {
	w, err := workloads.ByName("pagerank")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		observed bool
	}{{"observed", true}, {"unobserved", false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ctx := core.NewContext(core.Config{
					Seed:   1,
					Scheme: core.SchemeSpark,
					Exec:   exec.Config{Net: simnet.Config{JitterAmplitude: 0.25}},
				})
				if !bc.observed {
					ctx.Engine().Net.SetDeliveryObserver(nil)
				}
				inst := w.Make(ctx, workloads.Options{Seed: 1})
				b.StartTimer()
				if _, err := ctx.Save(inst.Target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
