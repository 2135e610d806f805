package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark made into a
// layer, or a stage duration the program reported for such a call.
// Parent is -1 for a root. Start and End are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// span's layer is its name up to the first dot.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a finished span and returns its id.
func (t *tracer) record(parent int32, name string, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// stages are one query's program-reported stage durations (SearchInfo,
// or the stages of a /search response).
type stages struct {
	Select, Search, Merge, Rerank, Fetch time.Duration
}

// query records a query span with its stages as children. The stages
// are laid end to end so that merge finishes when the call returned;
// rerank and fetch sit inside search, from its start. Whatever the
// stages do not cover is the query span's self time: lock wait and the
// facade's (or HTTP's) own work.
func (t *tracer) query(name string, start, end time.Time, st stages) {
	root := t.record(-1, name, start, end)
	mergeAt := end.Add(-st.Merge)
	searchAt := mergeAt.Add(-st.Search)
	t.record(root, "core.select", searchAt.Add(-st.Select), searchAt)
	search := t.record(root, "exec.search", searchAt, mergeAt)
	t.record(root, "exec.merge", mergeAt, end)
	if st.Rerank > 0 {
		t.record(search, "exec.rerank", searchAt, searchAt.Add(st.Rerank))
	}
	if st.Fetch > 0 {
		t.record(search, "exec.fetch", searchAt, searchAt.Add(st.Fetch))
	}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations in milliseconds of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time in milliseconds: its duration
// minus the union of its children's intervals, clipped to its own.
func (t *tracer) selfTimes() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// layerSelf sums self time per layer over the span trees whose roots are
// named rootName. It returns the mean per tree (milliseconds per query)
// and each root's own self time.
func (t *tracer) layerSelf(rootName string) (perLayer map[string]float64, rootSelf []float64) {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	rootOf := make([]int32, len(t.spans))
	perLayer = map[string]float64{}
	for i, s := range t.spans {
		rootOf[i] = int32(i)
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent] // parents are recorded first
		}
		if t.spans[rootOf[i]].Name != rootName {
			continue
		}
		if s.Parent < 0 {
			rootSelf = append(rootSelf, self[i])
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		perLayer[layer] += self[i]
	}
	if n := float64(len(rootSelf)); n > 0 {
		for l := range perLayer {
			perLayer[l] /= n
		}
	}
	return perLayer, rootSelf
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
