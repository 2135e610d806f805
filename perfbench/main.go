// Command perfbench is the repository's benchmark: three workloads over
// one MBI index shape, each reporting end-to-end metrics (tracing off) or
// per-layer metrics (tracing on), with every answer checked.
//
//	go build -o perfbench . && ./perfbench --workload window-mix --seed 1 --seconds 30 --trace 0
//
// or, from the repository root, bash perfbench/run.sh with the same flags.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"qps": {"value": 1234.5, "unit": "1/s"}, ...}}
//
// Human-readable lines (host fingerprint, every metric with its sample
// count, failures) precede it. The exit code is 0 when every check
// passed, 1 when a check failed, and 2 when the run could not start.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], fullScale, os.Stdout))
}

func run(args []string, sc scale, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same data, queries and operation sequence")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	root := fs.String("root", ".", "repository root, hashed into the host fingerprint")
	scratch := fs.String("scratch", ".bench_build", "directory for temporary index files and span dumps")
	commit := fs.String("commit", "", "commit the sources were checked out at, when known")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	b := &bench{
		sc:   sc,
		seed: *seed,
		dur:  time.Duration(*seconds * float64(time.Second)),
		dir:  dir,
		rep:  newReport(),
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	h := fingerprint(*root, *commit, *seed)
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# host %s\n", h)

	if err := w(b); err != nil {
		// A workload that cannot run at all (no listener, no disk) is a
		// failed run, reported as such rather than as a crash.
		b.rep.fail("workload aborted: %v", err)
	}
	if b.tr != nil {
		b.layerMetrics(h)
		path := filepath.Join(*scratch, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			b.rep.fail("writing spans: %v", err)
		} else {
			fmt.Fprintf(stdout, "# spans: %d written to %s\n", b.tr.len(), path)
		}
	}
	cat := endToEnd
	if b.tr != nil {
		cat = perLayer
	}
	return b.rep.print(stdout, cat)
}

// print writes the human-readable metric lines and the final JSON line,
// and returns the process exit code.
func (r *report) print(w io.Writer, cat []metricDef) int {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}
	for _, d := range cat {
		m, ok := r.metrics[d.name]
		if !ok {
			r.fail("metric %s was not measured", d.name)
			continue
		}
		out.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
		if m.samples > 0 {
			fmt.Fprintf(w, "%-34s %14.6g %-6s (n=%d)\n", d.name, m.value, d.unit, m.samples)
		} else {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, m.value, d.unit)
		}
	}
	// The other catalogue's metrics this run measured directly, such as
	// serve-ingest's insert latency, as comments.
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := out.Metrics[d.name]; !ok && r.has(d.name) {
			fmt.Fprintf(w, "# %-32s %14.6g %s\n", d.name, r.metrics[d.name].value, d.unit)
		}
	}
	for _, msg := range r.messages {
		fmt.Fprintf(w, "# FAIL %s\n", msg)
	}
	if r.failed > len(r.messages) {
		fmt.Fprintf(w, "# FAIL ... and %d more\n", r.failed-len(r.messages))
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	if out.Attempted == 0 {
		out.Attempted = 1
	}
	out.Correct = r.failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}
