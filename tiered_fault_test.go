//go:build tknn_fault

package tknn_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	tknn "repro"
	"repro/internal/fault"
	"repro/internal/wal"
)

// Fault-injection tests for tiered storage (build tag tknn_fault): a
// failed or torn segment write must never poison the index — blocks
// whose spill did not complete keep their RAM payload — and a failed
// block-cache load must degrade the query to Partial, never to an error
// or to wrong results.

// buildTieredPair builds a tiered index plus an all-RAM twin over the
// same data. Cold execution draws entry seeds at plan time in selection
// order, so the two must answer every query bit-identically — the twin
// is the unpoisoned reference the assertions compare against.
func buildTieredPair(t *testing.T, n int) (tiered, ram *tknn.MBI, vecs [][]float32) {
	t.Helper()
	t.Cleanup(fault.Reset)
	fault.Reset()
	vecs = tierVecs(n)
	opts := tierOpts(t.TempDir())
	tiered, err := tknn.NewMBI(opts)
	if err != nil {
		t.Fatalf("NewMBI(tiered): %v", err)
	}
	ramOpts := opts
	ramOpts.SpillDir, ramOpts.CacheBytes, ramOpts.SpillMaxHeight = "", 0, 0
	ram, err = tknn.NewMBI(ramOpts)
	if err != nil {
		t.Fatalf("NewMBI(ram): %v", err)
	}
	for i, v := range vecs {
		if err := tiered.Add(v, int64(i)); err != nil {
			t.Fatalf("Add %d (tiered): %v", i, err)
		}
		if err := ram.Add(v, int64(i)); err != nil {
			t.Fatalf("Add %d (ram): %v", i, err)
		}
	}
	return tiered, ram, vecs
}

func mustConfigure(t *testing.T, spec string) {
	t.Helper()
	if err := fault.Configure(spec, 1); err != nil {
		t.Fatalf("Configure(%q): %v", spec, err)
	}
}

// assertSameResults fails unless the two result lists are bit-identical.
func assertSameResults(t *testing.T, got, want []tknn.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Time != want[i].Time || got[i].Dist != want[i].Dist {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestInjectedCacheLoadErrorDegradesToPartial(t *testing.T) {
	tiered, ram, vecs := buildTieredPair(t, 200)
	if n, _, err := tiered.SpillCold(); err != nil || n == 0 {
		t.Fatalf("SpillCold: %d blocks, %v", n, err)
	}
	q := tknn.Query{Vector: vecs[3], K: 10, Start: 0, End: 200}
	requireColdPlan(t, tiered, q.Start, q.End)

	// Every cache load fails: cold subtasks are skipped, the query
	// degrades to Partial — no error, no panic, no fabricated results.
	mustConfigure(t, "blockcache.load:error")
	res, info, err := tiered.SearchDetailed(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchDetailed under injection: %v", err)
	}
	if !info.Partial {
		t.Fatalf("failed loads served without Partial (%d results)", len(res))
	}

	// Clearing the fault fully restores the index: failed loads were
	// never cached, so the next query pages segments in and answers
	// bit-identically to the RAM twin.
	fault.Reset()
	res2, info2, err := tiered.SearchDetailed(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchDetailed after reset: %v", err)
	}
	if info2.Partial {
		t.Fatal("query still Partial after the fault cleared")
	}
	want, err := ram.Search(q)
	if err != nil {
		t.Fatalf("ram Search: %v", err)
	}
	assertSameResults(t, res2, want)
}

// TestInjectedSegmentReadErrorDegradesOneQuery pins the persist.read
// fault point on the segment read path: one failed segment read
// degrades exactly one query to Partial, and since failed loads are not
// cached the next query pages the segment in and answers bit-identically
// to the RAM twin.
func TestInjectedSegmentReadErrorDegradesOneQuery(t *testing.T) {
	tiered, ram, vecs := buildTieredPair(t, 200)
	if n, _, err := tiered.SpillCold(); err != nil || n == 0 {
		t.Fatalf("SpillCold: %d blocks, %v", n, err)
	}
	q := tknn.Query{Vector: vecs[3], K: 10, Start: 0, End: 200}
	requireColdPlan(t, tiered, q.Start, q.End)

	mustConfigure(t, "persist.read:error:count=1")
	_, info, err := tiered.SearchDetailed(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchDetailed under injection: %v", err)
	}
	if !info.Partial {
		t.Fatal("failed segment read served without Partial")
	}
	res, info, err := tiered.SearchDetailed(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchDetailed after the injected failure: %v", err)
	}
	if info.Partial {
		t.Fatal("a second query was degraded by a one-shot read failure")
	}
	want, err := ram.Search(q)
	if err != nil {
		t.Fatalf("ram Search: %v", err)
	}
	assertSameResults(t, res, want)
}

func TestInjectedCacheLoadLatencySurfacesAsFetch(t *testing.T) {
	tiered, ram, vecs := buildTieredPair(t, 200)
	if n, _, err := tiered.SpillCold(); err != nil || n == 0 {
		t.Fatalf("SpillCold: %d blocks, %v", n, err)
	}
	q := tknn.Query{Vector: vecs[3], K: 10, Start: 0, End: 200}
	requireColdPlan(t, tiered, q.Start, q.End)

	// Slow loads are not failures: the query completes, answers exactly,
	// and the stall is attributed to the Fetch stage.
	const delay = 20 * time.Millisecond
	mustConfigure(t, "blockcache.load:latency=20ms")
	res, info, err := tiered.SearchDetailed(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchDetailed under latency: %v", err)
	}
	if info.Partial {
		t.Fatal("slow loads degraded the query to Partial")
	}
	if info.Fetch < delay {
		t.Fatalf("Fetch stage %v, want at least the injected %v", info.Fetch, delay)
	}
	want, err := ram.Search(q)
	if err != nil {
		t.Fatalf("ram Search: %v", err)
	}
	assertSameResults(t, res, want)
}

func TestInjectedTornSpillNeverInstalled(t *testing.T) {
	tiered, ram, vecs := buildTieredPair(t, 200)
	q := tknn.Query{Vector: vecs[3], K: 10, Start: 0, End: 200}

	// The first segment write is torn after 10 bytes: SpillCold must
	// report the failure and release nothing — the block keeps its RAM
	// payload, and no .seg file is renamed into place.
	mustConfigure(t, "persist.segment.write:truncate=10:count=1")
	if _, _, err := tiered.SpillCold(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("SpillCold under injection: err = %v, want ErrInjected", err)
	}
	if st := tiered.Internal().Stats(); st.SpilledBlocks != 0 {
		t.Fatalf("torn spill released %d blocks", st.SpilledBlocks)
	}
	segs, err := filepath.Glob(filepath.Join(tiered.Options().SpillDir, "block-*.seg"))
	if err != nil {
		t.Fatalf("Glob: %v", err)
	}
	if len(segs) != 0 {
		t.Fatalf("torn write installed %d segment files: %v", len(segs), segs)
	}
	res, info, err := tiered.SearchDetailed(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchDetailed after torn spill: %v", err)
	}
	if info.Partial {
		t.Fatal("query Partial though every block kept its RAM payload")
	}
	want, err := ram.Search(q)
	if err != nil {
		t.Fatalf("ram Search: %v", err)
	}
	assertSameResults(t, res, want)

	// With the fault cleared the same pass succeeds end to end and the
	// now-cold index still answers bit-identically.
	fault.Reset()
	if n, _, err := tiered.SpillCold(); err != nil || n == 0 {
		t.Fatalf("SpillCold after reset: %d blocks, %v", n, err)
	}
	if err := tiered.Internal().CheckInvariants(); err != nil {
		t.Fatalf("invariants after spill: %v", err)
	}
	res2, info2, err := tiered.SearchDetailed(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchDetailed after spill: %v", err)
	}
	if info2.Partial {
		t.Fatal("cold query Partial with intact segments")
	}
	assertSameResults(t, res2, want)
}

func TestInjectedSpillFailureDoesNotFailCheckpoint(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	dir := t.TempDir()
	opts := tierOpts(dir)
	cfg := wal.Config{Dir: dir, Sync: wal.SyncNever, SegmentBytes: 1 << 12}
	const total = 100
	vecs := tierVecs(total)

	m, err := wal.Open(cfg, tierRestore(opts))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < total; i++ {
		if err := m.Append(vecs[i], int64(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	// Spilling fails, but spilling is an optimization: the checkpoint
	// must proceed with the blocks left inline — the snapshot is merely
	// bigger, never wrong.
	mustConfigure(t, "persist.segment.write:error:count=1")
	if _, err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint must survive a spill failure: %v", err)
	}
	ix := m.Index().(*tknn.MBI)
	if st := ix.Internal().Stats(); st.SpilledBlocks != 0 {
		t.Fatalf("failed spill released %d blocks", st.SpilledBlocks)
	}
	fault.Reset()
	assertExactAt(t, ix, vecs, 0, total-1)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The inline snapshot recovers on its own; the next checkpoint
	// spills normally.
	m2, err := wal.Open(cfg, tierRestore(opts))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := m2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ix2 := m2.Index().(*tknn.MBI)
	if got := ix2.Len(); got != total {
		t.Fatalf("recovered %d vectors, want %d", got, total)
	}
	if _, err := m2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	if st := ix2.Internal().Stats(); st.SpilledBlocks == 0 {
		t.Fatal("recovered index never spilled")
	}
	assertExactAt(t, ix2, vecs, 0, total-1)
}
