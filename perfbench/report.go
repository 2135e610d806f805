package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The two catalogues
// below are the benchmark's contract; BENCHMARK.json mirrors them and the
// package test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the index sees, reported by every workload
// from the run with tracing off. Every value is non-zero on every
// workload, so a relative bound applies to each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"recall_at_10", "ratio"},
	{"heap_mb", "MB"},
}

// perLayer is reported by the traced run. A layer a workload does not
// exercise reports 0 (cold-sq8 alone spills, serve-ingest alone logs).
// README.md maps each metric to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"core.select_ms_p50", "ms"},
	{"core.blocks_per_query", "count"},
	{"core.scan_vectors_per_query", "count"},
	{"core.seal_ms_p50", "ms"},
	{"core.seal_ms_max", "ms"},
	{"core.seals", "count"},
	{"core.blocks_built", "count"},
	{"core.lock_wait_ms_p99", "ms"},
	{"exec.search_ms_p50", "ms"},
	{"exec.search_ms_p99", "ms"},
	{"exec.merge_ms_p50", "ms"},
	{"exec.rerank_ms_p50", "ms"},
	{"exec.rerank_ms_p99", "ms"},
	{"exec.fetch_ms_p50", "ms"},
	{"exec.fetch_ms_p99", "ms"},
	{"vec.ns_per_distance", "ns"},
	{"sq.ns_per_distance", "ns"},
	{"nndescent.ms_per_1k_vectors", "ms"},
	{"blockcache.hit_ratio", "ratio"},
	{"blockcache.misses", "count"},
	{"blockcache.evictions", "count"},
	{"persist.segment_read_ms", "ms"},
	{"persist.spilled_mb", "MB"},
	{"persist.snapshot_mb", "MB"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.fsyncs", "count"},
	{"wal.replayed", "count"},
	{"server.overhead_ms_p50", "ms"},
	{"server.shed", "count"},
	{"ingest.insert_p50_ms", "ms"},
	{"ingest.insert_p99_ms", "ms"},
	{"ingest.write_amp", "ratio"},
	{"ingest.recovery_s", "s"},
	{"self.server_ms", "ms"},
	{"self.tknn_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.exec_ms", "ms"},
	{"bench.late_ms_p99", "ms"},
	{"bench.trace_overhead_ms", "ms"},
	{"bench.calibration_ns", "ns"},
	{"bench.query_samples", "count"},
	{"bench.insert_samples", "count"},
	{"bench.fail_ratio", "ratio"},
}

type metricValue struct {
	value   float64
	samples int // observations behind a percentile or mean; 0 for counts
}

// report accumulates one run's metrics and its operation accounting:
// attempted counts every operation and check the run made, failed those
// that erred, were refused, came back partial or failed a check.
type report struct {
	mu        sync.Mutex // serve-ingest's reader and writer report concurrently
	metrics   map[string]metricValue
	attempted int
	failed    int
	messages  []string
}

// maxMessages bounds the failure messages kept for printing; the count
// is always exact.
const maxMessages = 20

func newReport() *report { return &report{metrics: map[string]metricValue{}} }

func (r *report) set(name string, v float64) { r.setN(name, v, 0) }

func (r *report) setN(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not a finite number", name)
		v = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metricValue{value: v, samples: samples}
}

// op records one attempted operation and, when err is non-nil, its
// failure.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.messages) < maxMessages {
			r.messages = append(r.messages, err.Error())
		}
	}
}

func (r *report) counts() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted, r.failed
}

func (r *report) has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.metrics[name]
	return ok
}

// fail records a failed check that is not tied to one operation.
func (r *report) fail(format string, args ...any) {
	r.op(fmt.Errorf(format, args...))
}

// minTail is the number of samples a percentile must have beyond it: a
// p99 needs 1000 samples, a p50 needs 20.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank.
// An empty sample reports 0 (the layer was not exercised); a non-empty
// one too small to leave minTail samples beyond the quantile fails the
// run, because such a tail is noise.
func (r *report) percentile(name string, xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if beyond := float64(len(xs)) * (1 - p); beyond+1e-9 < minTail {
		r.fail("%s: %d samples leave %.1f beyond the %g quantile, want at least %d", name, len(xs), beyond, p, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// setPercentile records the p-quantile of xs under name with its sample
// count.
func (r *report) setPercentile(name string, xs []float64, p float64) {
	r.setN(name, r.percentile(name, xs, p), len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
