package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	tknn "repro"
	"repro/internal/dataset"
)

// bench is one run: a workload at a scale and seed, timed for dur, with
// spans recorded when tr is non-nil.
type bench struct {
	sc   scale
	seed int64
	dur  time.Duration
	dir  string // private scratch directory for index files, removed at exit
	tr   *tracer
	rep  *report

	data     *dataset.Data // the workload's vectors, for the layer kernels
	untraced []float64     // traced run: latencies (ms) of queries run without a span
	traced   []float64     // traced run: latencies (ms) of queries run with a span
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"window-mix":   (*bench).windowMix,
	"cold-sq8":     (*bench).coldSQ8,
	"serve-ingest": (*bench).serveIngest,
}

// tracing reports whether query i of pass p over the query set gets a
// span. A traced run traces every other query, alternating between
// passes so that each query is traced in half of them; the traced and
// untraced halves then differ only by tracing, which gives its overhead.
func (b *bench) tracing(i, p int) bool { return b.tr != nil && (i+p)%2 == 1 }

// build appends data rows [0, n) to ix one Add at a time, the way an
// application ingests. An Add that fills a leaf seals it and builds the
// cascade of completed ancestors; the traced run records each such call
// as a core.seal span.
func (b *bench) build(ix *tknn.MBI, wd workloadData, n int) error {
	leaf := ix.Options().LeafSize
	for i := 0; i < n; i++ {
		sealing := b.tr != nil && (ix.Len()+1)%leaf == 0
		var t0 time.Time
		if sealing {
			t0 = time.Now()
		}
		if err := ix.Add(wd.d.Train.At(i), wd.d.Times[i]); err != nil {
			return fmt.Errorf("add %d: %w", i, err)
		}
		if sealing {
			b.tr.record(-1, "core.seal", t0, time.Now())
		}
	}
	ix.Flush()
	return nil
}

// answers runs the query set once, untimed, checking every answer's
// shape and exact distances, and returns the answers and their recall.
func (b *bench) answers(ix *tknn.MBI, wd workloadData) ([][]tknn.Result, []float64) {
	out := make([][]tknn.Result, len(wd.queries))
	recalls := make([]float64, len(wd.queries))
	for i, q := range wd.queries {
		res, info, err := ix.SearchDetailed(context.Background(), q)
		if err == nil && info.Partial {
			err = errPartial
		}
		if err == nil {
			err = checkAnswer(res, q, wd.d.Times)
		}
		if err == nil {
			err = checkDistances(res, q, wd.d)
		}
		if err != nil {
			err = fmt.Errorf("query %d: %w", i, err)
		}
		b.rep.op(err)
		out[i] = res
		recalls[i] = recall(res, wd.truth[i])
	}
	return out, recalls
}

// minPasses is the fewest passes over the query set a closed-loop run
// makes, even if that takes longer than the run's duration.
const minPasses = 3

// closedLoop is one client issuing the query set in order, each query
// sent when the previous one returned, in whole passes until the run's
// duration is spent. It checks every answer's shape and returns each
// pass's latencies (ms) in query order and the phase's wall-clock
// seconds. Every pass runs the same queries, so passes differ only by
// noise.
func (b *bench) closedLoop(ix *tknn.MBI, wd workloadData) (lat [][]float64, elapsed float64) {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(b.dur)
	for p := 0; p < minPasses || time.Now().Before(deadline); p++ {
		passLat := make([]float64, 0, len(wd.queries))
		for i, q := range wd.queries {
			t0 := time.Now()
			res, info, err := ix.SearchDetailed(ctx, q)
			end := time.Now()
			l := ms(end.Sub(t0))
			passLat = append(passLat, l)
			if b.tracing(i, p) {
				b.tr.query("tknn.search", t0, end, stagesOf(info))
				b.traced = append(b.traced, l)
			} else if b.tr != nil {
				b.untraced = append(b.untraced, l)
			}
			if err == nil && info.Partial {
				err = errPartial
			}
			if err == nil {
				err = checkAnswer(res, q, wd.d.Times)
			}
			if err != nil {
				err = fmt.Errorf("pass %d query %d: %w", p, i, err)
			}
			b.rep.op(err)
		}
		lat = append(lat, passLat)
	}
	return lat, time.Since(start).Seconds()
}

// passMetrics records the closed-loop query metrics. qps is the queries
// the one client completed per second of the timed phase. The latency
// percentiles are over each query's median latency across passes: pooled
// over every pass, cold-sq8's p99 doubled between runs on a 2-core VM as
// host stalls landed in its tail. A query's median ignores stalls that
// hit a minority of its passes, so the p99 is that of the slowest 1% of
// the query mix; a cost the program pays in a minority of passes shows
// in qps instead.
func (b *bench) passMetrics(lat [][]float64, elapsed float64, recalls []float64) {
	perQuery := make([]float64, len(lat[0]))
	across := make([]float64, len(lat))
	for i := range perQuery {
		for p := range lat {
			across[p] = lat[p][i]
		}
		perQuery[i] = median(across)
	}
	n := len(lat) * len(perQuery)
	b.rep.setN("qps", float64(n)/elapsed, n)
	b.queryMetrics(perQuery, recalls)
}

func stagesOf(info tknn.SearchInfo) stages {
	return stages{Select: info.Select, Search: info.Search, Merge: info.Merge, Rerank: info.Rerank, Fetch: info.Fetch}
}

// liveHeapMB forces a collection and returns the live heap minus what
// the block cache holds, which depends on timing. The second collection
// empties the sync.Pool victim caches the first one left.
func liveHeapMB(cacheBytes int64) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(int64(m.HeapAlloc)-cacheBytes) / (1 << 20)
}

// setupTimes builds the workload's ready state setups times through
// setup, which returns the seconds it spent on timed work; it keeps the
// last state and records the median as setup_s.
func (b *bench) setupTimes(setup func(last bool) (float64, error)) error {
	var secs []float64
	for i := 0; i < setups; i++ {
		s, err := setup(i == setups-1)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, s)
	}
	b.rep.setN("setup_s", median(secs), len(secs))
	return nil
}

// queryMetrics records the latency percentiles and recall. Callers
// record qps, and measure heap_mb after it, once the latency samples, whose number
// depends on throughput, are garbage.
func (b *bench) queryMetrics(lat []float64, recalls []float64) {
	b.rep.setPercentile("query_p50_ms", lat, 0.50)
	b.rep.setPercentile("query_p99_ms", lat, 0.99)
	b.rep.setN("recall_at_10", mean(recalls), len(recalls))
}
