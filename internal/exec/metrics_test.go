package exec

import (
	"math"
	"math/rand"
	"testing"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// TestByteCountersMirrorNetwork checks the engine mirrors delivered bytes
// into bytes_moved_total{class} / bytes_cross_dc_total{class} counters:
// per-class totals must match the network's own accounting to within the
// sub-byte remainder each class carries.
func TestByteCountersMirrorNetwork(t *testing.T) {
	topo := topology.SixRegionEC2()
	g := rdd.NewGraph()
	eng := New(topo, 1, Config{})
	res, err := eng.Run(wordCount(spreadInput(g, topo, 10*mb), 8), ActionCollect, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var moved, cross float64
	byClass := map[string]float64{}
	for _, p := range eng.Events.Registry().Snapshot() {
		switch p.Name {
		case "bytes_moved_total":
			moved += p.Value
		case "bytes_cross_dc_total":
			cross += p.Value
			byClass[p.Labels["class"]] += p.Value
		}
	}
	if moved < eng.Net.TotalBytes()-16 || moved > eng.Net.TotalBytes() {
		t.Fatalf("bytes_moved_total sums to %v, network delivered %v", moved, eng.Net.TotalBytes())
	}
	if cross < res.CrossDCBytes-16 || cross > res.CrossDCBytes {
		t.Fatalf("bytes_cross_dc_total sums to %v, cross-DC bytes %v", cross, res.CrossDCBytes)
	}
	for tag, want := range res.CrossDCByTag {
		if got := byClass[tag]; math.Abs(got-want) > 2 {
			t.Fatalf("bytes_cross_dc_total{class=%q} = %v, want ~%v", tag, got, want)
		}
	}
	if _, ok := byClass["shuffle"]; !ok {
		t.Fatalf("no shuffle-class counter: %v", byClass)
	}
}

// crossSeries returns the bytes_cross_dc_total series of a registry
// snapshot by class.
func crossSeries(eng *Engine) map[string]float64 {
	out := map[string]float64{}
	for _, p := range eng.Events.Registry().Snapshot() {
		if p.Name == "bytes_cross_dc_total" {
			out[p.Labels["class"]] = p.Value
		}
	}
	return out
}

// TestMirrorBindsOnFirstWholeByte checks that a class's counters are
// bound lazily: deliveries that carry less than one whole byte register
// no series, and the series appears at the first whole byte.
func TestMirrorBindsOnFirstWholeByte(t *testing.T) {
	eng := New(topology.SixRegionEC2(), 1, Config{})
	eng.mirrorDelivery("tiny", 0.4, true)
	eng.mirrorDelivery("tiny", 0.4, true)
	if n := len(eng.Events.Registry().Snapshot()); n != 0 {
		t.Fatalf("0.8 delivered bytes registered %d series", n)
	}
	eng.mirrorDelivery("tiny", 0.3, false) // moved reaches 1.1; cross stays 0.8
	if got := crossSeries(eng); len(got) != 0 {
		t.Fatalf("0.8 cross-DC bytes registered bytes_cross_dc_total: %v", got)
	}
	if got := eng.Events.Registry().Counter("bytes_moved_total", obs.Labels{"class": "tiny"}).Value(); got != 1 {
		t.Fatalf("bytes_moved_total{tiny} = %d, want 1", got)
	}
	eng.mirrorDelivery("tiny", 0.3, true) // cross reaches 1.1
	if got := crossSeries(eng); len(got) != 1 || got["tiny"] != 1 {
		t.Fatalf("bytes_cross_dc_total = %v, want {tiny: 1}", got)
	}
}

// TestMirrorCarriesRemainders replays a seeded stream of fractional
// deliveries and checks every counter against the carry rule written out
// directly: each whole byte is added once its remainder reaches it, and
// the sub-byte residue carries to the next delivery of the class.
func TestMirrorCarriesRemainders(t *testing.T) {
	eng := New(topology.SixRegionEC2(), 1, Config{})
	rng := rand.New(rand.NewSource(7))
	tags := []string{TagShuffle, TagPush, TagResult}
	moved, cross := map[string]int64{}, map[string]int64{}
	movedRem, crossRem := map[string]float64{}, map[string]float64{}
	for range 5000 {
		tag := tags[rng.Intn(len(tags))]
		bytes := rng.ExpFloat64() * 3
		crossDC := rng.Intn(2) == 0
		eng.mirrorDelivery(tag, bytes, crossDC)
		r := movedRem[tag] + bytes
		moved[tag] += int64(r)
		movedRem[tag] = r - float64(int64(r))
		if crossDC {
			r := crossRem[tag] + bytes
			cross[tag] += int64(r)
			crossRem[tag] = r - float64(int64(r))
		}
	}
	reg := eng.Events.Registry()
	for _, tag := range tags {
		if got := reg.Counter("bytes_moved_total", obs.Labels{"class": tag}).Value(); got != moved[tag] {
			t.Fatalf("bytes_moved_total{%s} = %d, want %d", tag, got, moved[tag])
		}
		if got := reg.Counter("bytes_cross_dc_total", obs.Labels{"class": tag}).Value(); got != cross[tag] {
			t.Fatalf("bytes_cross_dc_total{%s} = %d, want %d", tag, got, cross[tag])
		}
	}
}

// TestMirrorDeliveryAllocatesNothing is the allocation guard of the
// simulator's per-delivery metrics path: once a class's counters are
// bound, mirroring a delivery allocates nothing — no label map, no key
// string.
func TestMirrorDeliveryAllocatesNothing(t *testing.T) {
	eng := New(topology.SixRegionEC2(), 1, Config{})
	for _, tag := range []string{TagShuffle, TagResult} {
		eng.mirrorDelivery(tag, 2, true) // bind both handles
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			i++
			eng.mirrorDelivery(tag, 0.75, i%2 == 0)
		}); n != 0 {
			t.Fatalf("mirrorDelivery(%q) allocates %v per call, want 0", tag, n)
		}
	}
}
