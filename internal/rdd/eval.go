package rdd

// EvalLocal evaluates the lineage of r entirely in memory, ignoring
// placement, time, and the network — a single-machine reference
// implementation of the engine's semantics. It exists so that tests and
// workload validators can compare the simulated cluster's output against
// ground truth.
//
// EvalLocal prepares range partitioners from the full key set, whereas the
// engine samples at the map-stage barrier; both produce a valid total
// order, so sorted outputs are compared by order, not shard boundaries.
// Because Prepare mutates partitioner state, do not run EvalLocal and the
// engine over the *same* Graph instance; build the job twice.
func EvalLocal(r *RDD) [][]Pair {
	e := &localEval{memo: map[int][][]Pair{}}
	return e.eval(r)
}

type localEval struct {
	memo map[int][][]Pair
}

func (e *localEval) eval(r *RDD) [][]Pair {
	if got, ok := e.memo[r.ID]; ok {
		return got
	}
	var out [][]Pair
	switch {
	case len(r.Deps) == 0:
		out = make([][]Pair, len(r.Input))
		for i, p := range r.Input {
			out[i] = p.Records
		}
	case r.Deps[0].Kind == DepShuffle:
		out = e.evalShuffle(r)
	default:
		out = e.evalNarrow(r)
	}
	e.memo[r.ID] = out
	return out
}

func (e *localEval) evalNarrow(r *RDD) [][]Pair {
	out := make([][]Pair, r.NumParts())
	for i := 0; i < r.NumParts(); i++ {
		var in []Pair
		for di := range r.Deps {
			d := &r.Deps[di]
			parent := e.eval(d.Parent)
			for _, pi := range d.ParentParts(i) {
				in = append(in, parent[pi]...)
			}
		}
		out[i] = r.Narrow(i, in)
	}
	return out
}

func (e *localEval) evalShuffle(r *RDD) [][]Pair {
	shards := make([][]Pair, r.NumParts())
	for di := range r.Deps {
		d := &r.Deps[di]
		if d.Kind != DepShuffle {
			panic("rdd: mixed narrow and shuffle deps on one RDD")
		}
		spec := d.Shuffle
		parent := e.eval(d.Parent)
		if spec.SampleForRange && !spec.Partitioner.Ready() {
			var sample []string
			for _, part := range parent {
				prepared := MapSidePrepare(spec, part)
				sample = append(sample, SampleKeys(prepared, SampleSize)...)
			}
			spec.Partitioner.(*RangePartitioner).Prepare(sample)
		}
		for _, part := range parent {
			prepared := MapSidePrepare(spec, part)
			for i, shard := range BucketRecords(spec, prepared) {
				shards[i] = append(shards[i], shard...)
			}
		}
	}
	out := make([][]Pair, r.NumParts())
	for i := range shards {
		// With multiple shuffle deps (cogroup) the specs agree on
		// aggregation, so apply the first.
		agg := ReduceAggregate(r.Deps[0].Shuffle, shards[i])
		if r.PostShuffle != nil {
			agg = r.PostShuffle(i, agg)
		}
		out[i] = agg
	}
	return out
}

// CollectLocal flattens EvalLocal output into one record slice, partition
// by partition.
func CollectLocal(r *RDD) []Pair {
	var out []Pair
	for _, part := range EvalLocal(r) {
		out = append(out, part...)
	}
	return out
}
