package main

import (
	"time"

	"repro/internal/nndescent"
	"repro/internal/sq"
	"repro/internal/vec"
)

// layerMetrics turns the traced run's spans, its directly measured
// counts and the layer kernels into the per-layer metrics. Layers the
// workload did not exercise report 0.
func (b *bench) layerMetrics(h host) {
	r, tr := b.rep, b.tr
	r.setPercentile("core.select_ms_p50", tr.durations("core.select"), 0.50)
	r.setPercentile("exec.search_ms_p50", tr.durations("exec.search"), 0.50)
	r.setPercentile("exec.search_ms_p99", tr.durations("exec.search"), 0.99)
	r.setPercentile("exec.merge_ms_p50", tr.durations("exec.merge"), 0.50)
	// Rerank and fetch spans exist only for queries that ran them; pad
	// with the zeros of those that did not, so the percentiles are over
	// every traced query.
	queries := len(tr.durations("core.select"))
	r.setPercentile("exec.rerank_ms_p50", padZeros(tr.durations("exec.rerank"), queries), 0.50)
	r.setPercentile("exec.rerank_ms_p99", padZeros(tr.durations("exec.rerank"), queries), 0.99)
	r.setPercentile("exec.fetch_ms_p50", padZeros(tr.durations("exec.fetch"), queries), 0.50)
	r.setPercentile("exec.fetch_ms_p99", padZeros(tr.durations("exec.fetch"), queries), 0.99)

	seals := tr.durations("core.seal")
	r.setPercentile("core.seal_ms_p50", seals, 0.50)
	r.setN("core.seal_ms_max", maxOf(seals), len(seals))
	r.setPercentile("persist.segment_read_ms", tr.durations("persist.read_segment"), 0.50)

	// Self time per layer over the query span trees. In process the
	// facade span's self time is lock wait plus the facade's own work; over
	// HTTP the request span's self time is the server's overhead plus lock
	// wait, and its median is taken as the overhead.
	root := "tknn.search"
	if len(tr.durations("server.search")) > 0 {
		root = "server.search"
	}
	self, rootSelf := tr.layerSelf(root)
	for _, layer := range []string{"server", "tknn", "core", "exec"} {
		r.setN("self."+layer+"_ms", self[layer], len(rootSelf))
	}
	wait := rootSelf
	if root == "server.search" {
		overhead := median(rootSelf)
		r.setN("server.overhead_ms_p50", overhead, len(rootSelf))
		wait = make([]float64, len(rootSelf))
		for i, s := range rootSelf {
			wait[i] = s - overhead
		}
	}
	r.setPercentile("core.lock_wait_ms_p99", wait, 0.99)

	r.setN("bench.trace_overhead_ms", median(b.traced)-median(b.untraced), len(b.traced)+len(b.untraced))
	r.set("bench.query_samples", float64(len(b.traced)+len(b.untraced)))
	r.set("bench.calibration_ns", h.CalibrationNs)
	b.kernels()

	attempted, failed := r.counts()
	r.set("bench.fail_ratio", float64(failed)/float64(max(attempted, 1)))
	for _, d := range perLayer {
		if !r.has(d.name) {
			r.set(d.name, 0)
		}
	}
}

// kernels times the distance and graph-build kernels on the first leaf
// of the workload's data: vec.Distance and the SQ8 asymmetric distance
// over one fixed row batch, and NNDescent over one leaf-size view.
func (b *bench) kernels() {
	d := b.data
	if d == nil {
		return // the workload aborted before generating its data
	}
	metric := d.Profile.Metric
	rows := min(b.sc.Leaf, d.Train.Len())
	q := d.Test[0]
	const passes = 64
	var sink float32

	b.rep.setN("vec.ns_per_distance", medianOf(7, func() float64 {
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for i := 0; i < rows; i++ {
				sink += vec.Distance(metric, q, d.Train.At(i))
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(passes*rows)
	}), 7)

	codes := sq.Train(d.Train, 0, rows, sq.TrainConfig{})
	dist := sqKernel(codes, metric, q)
	b.rep.setN("sq.ns_per_distance", medianOf(7, func() float64 {
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for i := 0; i < rows; i++ {
				sink += dist(i)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(passes*rows)
	}), 7)

	nnd := nndescent.MustNew(nndescent.DefaultConfig(b.sc.Degree))
	view := vec.View{Store: d.Train, Lo: 0, Hi: rows, Metric: metric}
	b.rep.setN("nndescent.ms_per_1k_vectors", medianOf(5, func() float64 {
		t0 := time.Now()
		nnd.Build(view, b.seed)
		return ms(time.Since(t0)) * 1000 / float64(rows)
	}), 5)
	kernelSink = sink
}

// kernelSink keeps the timed distance loops from being optimised away.
var kernelSink float32

// sqKernel returns row i's asymmetric distance to q through the table
// kernel queries use, with its per-query table built outside the timing.
func sqKernel(codes *sq.Codes, metric vec.Metric, q []float32) func(i int) float32 {
	qNorm := vec.Norm(q)
	lut := make([]float32, codes.LUTLen())
	codes.FillLUT(metric, q, lut)
	return func(i int) float32 { return codes.LUTDist(metric, lut, qNorm, i) }
}

// medianOf runs f n times and returns the median result.
func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

func padZeros(xs []float64, n int) []float64 {
	for len(xs) < n {
		xs = append(xs, 0)
	}
	return xs
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
