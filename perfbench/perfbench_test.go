package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecMatchesCatalogue keeps BENCHMARK.json and the metric
// catalogues the program reports from in step.
func TestSpecMatchesCatalogue(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: want a one-line reason", w.Name)
		}
	}
	sort.Strings(names)
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, workloadNames())
	}
	for _, c := range []struct {
		list string
		spec []specMetric
		cat  []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.spec) != len(c.cat) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.list, len(c.spec), len(c.cat))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.cat[i].name || m.Unit != c.cat[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s in %s, the program %s in %s", c.list, i, m.Name, m.Unit, c.cat[i].name, c.cat[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at the tiny scale and returns its parsed
// last line, failing the test unless every check passed and exactly the
// catalogue's metrics were reported with their units.
func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "5", "--trace", trace,
		"--scratch", t.TempDir()}, tinyScale, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v\n%s", workload, trace, err, out.String())
	}
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s trace=%s: exit %d, correct %v, %d of %d failed\n%s", workload, trace, code, r.Correct, r.Failed, r.Attempted, out.String())
	}
	cat := endToEnd
	if trace == "1" {
		cat = perLayer
	}
	if len(r.Metrics) != len(cat) {
		t.Errorf("%s trace=%s: %d metrics reported, want %d", workload, trace, len(r.Metrics), len(cat))
	}
	for _, d := range cat {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s trace=%s: metric %s reported %v in %q, want unit %q", workload, trace, d.name, ok, m.Unit, d.unit)
		}
		if trace == "0" && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s is %g, want > 0", workload, d.name, m.Value)
		}
	}
	return r
}

// TestWorkloadsTiny runs every workload untraced and traced at the tiny
// scale.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"window-mix", "cold-sq8", "serve-ingest"} {
		t.Run(w, func(t *testing.T) {
			runTiny(t, w, "0")
			layers := runTiny(t, w, "1")
			v := func(name string) float64 { return layers.Metrics[name].Value }
			for _, name := range []string{"core.blocks_per_query", "core.seals", "core.blocks_built", "exec.search_ms_p50",
				"vec.ns_per_distance", "sq.ns_per_distance", "nndescent.ms_per_1k_vectors", "bench.calibration_ns"} {
				if v(name) <= 0 {
					t.Errorf("%s = %g, want > 0 on every workload", name, v(name))
				}
			}
			switch w {
			case "window-mix":
				if v("core.scan_vectors_per_query") <= 0 {
					t.Error("window-mix never scanned the open leaf")
				}
			case "cold-sq8":
				if hr := v("blockcache.hit_ratio"); hr >= 1 || v("blockcache.evictions") <= 0 || v("exec.fetch_ms_p99") <= 0 {
					t.Errorf("cold-sq8 must miss and evict: hit ratio %g, %g evictions", hr, v("blockcache.evictions"))
				}
				if v("exec.rerank_ms_p50") <= 0 || v("persist.segment_read_ms") <= 0 {
					t.Error("cold-sq8 reported no re-rank or segment read time")
				}
			case "serve-ingest":
				for _, name := range []string{"wal.fsyncs", "wal.replayed", "persist.snapshot_mb", "ingest.write_amp",
					"ingest.recovery_s", "ingest.insert_p99_ms", "server.overhead_ms_p50"} {
					if v(name) <= 0 {
						t.Errorf("serve-ingest: %s = %g, want > 0", name, v(name))
					}
				}
			}
		})
	}
}
