package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	tknn "repro"
	"repro/internal/dataset"
	"repro/internal/theap"
	"repro/internal/vec"
)

// scale fixes the index shape and the traffic of every workload, in
// the fields where the full scale the benchmark runs and the tiny scale
// of the package test differ. The full scale keeps the slowest run
// (set-ups plus a 25-second timed phase) under 40 seconds on two cores.
type scale struct {
	// N is the number of vectors window-mix and cold-sq8 index. It is not
	// a multiple of Leaf, so an open leaf is always brute-force scanned.
	N, Dim, Leaf, Degree int

	// serve-ingest: in every round, Preload vectors of history, then one
	// writer posting batchSize-vector batches at WriteRate batches/s and
	// one reader posting searches at ReadRate/s, with a checkpoint after
	// every CheckpointEvery acknowledged vectors; after the last round,
	// Reopens timed reopens.
	// At full scale the writer offers 200 vectors/s, about a fifth of
	// the 930-1,000 vectors/s a closed-loop writer had acknowledged over
	// the same stream, reader running, on a 2-core VM: far enough below
	// capacity that its queue does not grow with the run's length.
	Preload                 int
	WriteRate, ReadRate     float64
	CheckpointEvery         int
	Reopens, RecoveryProbes int
}

var (
	fullScale = scale{
		N: 4224, Dim: 64, Leaf: 256, Degree: 16,
		Preload: 3840, WriteRate: 100, ReadRate: 200, CheckpointEvery: 512,
		Reopens: 3, RecoveryProbes: 64,
	}
	tinyScale = scale{
		N: 1088, Dim: 32, Leaf: 128, Degree: 12,
		Preload: 896, WriteRate: 200, ReadRate: 400, CheckpointEvery: 256,
		Reopens: 1, RecoveryProbes: 16,
	}
)

const (
	// queries is the size of the fixed query set; its windows cover
	// 1%..95% of the indexed history, evenly spaced. Closed-loop
	// percentiles over whole passes need at least 10 samples beyond p99.
	queries = 1024
	// setups is how many times a window-mix or cold-sq8 run builds its
	// index from empty; setup_s is their median. serve-ingest sets up
	// once per round instead.
	setups = 3
	// cacheShare bounds cold-sq8's block cache to this share of the
	// spilled bytes, so the query stream misses and evicts.
	cacheShare = 0.25
	// batchSize is the vectors per serve-ingest write batch.
	batchSize = 2
)

// k is the result count of every query: the paper's recall@10 setting.
const k = 10

// profile is the drifting-cluster data every workload draws from:
// Gaussian clusters around unit centres that random-walk as time
// advances, so each block covers a coherent region of space.
func (sc scale) profile(n int) dataset.Profile {
	return dataset.Profile{
		Name: "drift", Dim: sc.Dim, Metric: vec.Euclidean,
		TrainN: n, TestN: queries,
		Clusters: 32, ClusterStd: 0.9, Background: 0.1,
	}
}

// mbiOptions is the index shape shared by the workloads: the library
// defaults apart from the scale's dimension, leaf size and graph degree.
func (sc scale) mbiOptions() tknn.MBIOptions {
	return tknn.MBIOptions{Dim: sc.Dim, Metric: tknn.Euclidean, LeafSize: sc.Leaf, GraphDegree: sc.Degree}
}

// workloadData is a generated workload: the vectors in insertion order
// (timestamp = insertion index), the fixed query set over the first
// history vectors, and its exact answers.
type workloadData struct {
	d       *dataset.Data
	queries []tknn.Query
	truth   [][]theap.Neighbor
}

// makeData draws n vectors and the query set from seed, then computes
// the exact ground truth by brute force. Callers run it before any timer
// starts.
func makeData(sc scale, seed int64, n, history int) workloadData {
	p := sc.profile(n)
	d := dataset.GenerateDrifting(p, dataset.DriftConfig{Rate: 5e-4, Renormalize: true}, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	order := rng.Perm(len(d.Test))
	qs := make([]tknn.Query, len(d.Test))
	dqs := make([]dataset.Query, len(d.Test))
	for i, slot := range order {
		f := 0.01
		if len(d.Test) > 1 {
			f += 0.94 * float64(i) / float64(len(d.Test)-1)
		}
		ts, te := dataset.WindowForFraction(rng, d.Times[:history], f)
		qs[slot] = tknn.Query{Vector: d.Test[slot], K: k, Start: ts, End: te}
		dqs[slot] = dataset.Query{W: d.Test[slot], K: k, Ts: ts, Te: te}
	}
	truth := dataset.GroundTruth(d.Train, d.Times, p.Metric, dqs, 2)
	return workloadData{d: d, queries: qs, truth: truth}
}

// checkAnswer verifies one answer's shape: at most K entries, ascending
// distance, unique ids, and each id's timestamp inside the window and
// equal to the timestamp it was inserted with.
func checkAnswer(res []tknn.Result, q tknn.Query, times []int64) error {
	if len(res) > q.K {
		return fmt.Errorf("%d results for k=%d", len(res), q.K)
	}
	seen := make(map[int]bool, len(res))
	for i, r := range res {
		if r.ID < 0 || r.ID >= len(times) || times[r.ID] != r.Time {
			return fmt.Errorf("result %d: id %d with time %d is not an inserted vector", i, r.ID, r.Time)
		}
		if r.Time < q.Start || r.Time >= q.End {
			return fmt.Errorf("result %d: time %d outside window [%d, %d)", i, r.Time, q.Start, q.End)
		}
		if seen[r.ID] {
			return fmt.Errorf("result %d: duplicate id %d", i, r.ID)
		}
		seen[r.ID] = true
		if i > 0 && r.Dist < res[i-1].Dist {
			return fmt.Errorf("result %d: distance %g below its predecessor's %g", i, r.Dist, res[i-1].Dist)
		}
	}
	return nil
}

// checkDistances verifies every reported distance is the exact metric
// distance to the stored vector: graph results are scored on float32
// rows, and SQ8 candidates are re-ranked exactly.
func checkDistances(res []tknn.Result, q tknn.Query, d *dataset.Data) error {
	for i, r := range res {
		want := vec.Distance(d.Profile.Metric, q.Vector, d.Train.At(r.ID))
		if diff := math.Abs(float64(r.Dist - want)); diff > 1e-4+1e-4*math.Abs(float64(want)) {
			return fmt.Errorf("result %d: id %d distance %g, exact %g", i, r.ID, r.Dist, want)
		}
	}
	return nil
}

// recall is recall@k of one answer against the exact one.
func recall(res []tknn.Result, exact []theap.Neighbor) float64 {
	ns := make([]theap.Neighbor, len(res))
	for i, r := range res {
		ns[i] = theap.Neighbor{ID: int32(r.ID), Dist: r.Dist}
	}
	return dataset.Recall(ns, exact, k)
}

// Recall floors: the lowest mean recall@10 of the fixed query set that
// counts as correct. Measured recall sits 0.05 or more above each.
const (
	recallFloorFloat = 0.85
	recallFloorSQ8   = 0.85
)

// checkRecall checks the mean recall of a query set against its floor.
func (b *bench) checkRecall(workload string, recalls []float64, floor float64) {
	var err error
	if len(recalls) == 0 {
		err = errors.New("no answers to score")
	} else if m := mean(recalls); m < floor {
		err = fmt.Errorf("%s: recall@10 %.4f below the floor %.2f", workload, m, floor)
	}
	b.rep.op(err)
}
