package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	tknn "repro"
	"repro/internal/persist"
)

// windowMix: an all-RAM float32 index queried in process by one
// closed-loop client. It exercises block selection, graph search and the
// open leaf's brute-force scan, and touches no disk, cache, HTTP or
// ingest.
func (b *bench) windowMix() error {
	sc := b.sc
	wd := makeData(sc, b.seed, sc.N, sc.N)
	b.data = wd.d
	var ix *tknn.MBI
	err := b.setupTimes(func(last bool) (float64, error) {
		t0 := time.Now()
		next, err := tknn.NewMBI(sc.mbiOptions())
		if err != nil {
			return 0, err
		}
		if err := b.build(next, wd, sc.N); err != nil {
			return 0, err
		}
		ix = next
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}
	_, recalls := b.answers(ix, wd)
	b.checkRecall("window-mix", recalls, recallFloorFloat)
	lat, elapsed := b.closedLoop(ix, wd)
	b.passMetrics(lat, elapsed, recalls)
	b.rep.set("heap_mb", liveHeapMB(0))
	b.indexCounts(ix, wd)
	return nil
}

// coldSQ8: the window-mix data and queries over an SQ8 index whose
// sealed blocks are all spilled to segment files, read back through a
// block cache bounded to a quarter of the spilled bytes. The SQ8 kernel,
// re-rank, cache misses, segment decode and the executor's fetch stage
// sit on every query's path.
func (b *bench) coldSQ8() error {
	sc := b.sc
	wd := makeData(sc, b.seed, sc.N, sc.N)
	b.data = wd.d
	var (
		ix      *tknn.MBI
		spillTo string
		spilled int64
		inRAM   [][]tknn.Result
	)
	err := b.setupTimes(func(last bool) (float64, error) {
		dir, err := os.MkdirTemp(b.dir, "spill-")
		if err != nil {
			return 0, err
		}
		opts := sc.mbiOptions()
		opts.Compression = tknn.CompressionSQ8
		opts.SpillDir = dir
		t0 := time.Now()
		next, err := tknn.NewMBI(opts)
		if err != nil {
			return 0, err
		}
		if err := b.build(next, wd, sc.N); err != nil {
			return 0, err
		}
		built := time.Since(t0)
		if last {
			// Untimed: the answers before spilling, which the spilled
			// index must reproduce exactly.
			inRAM, _ = b.answers(next, wd)
		}
		t1 := time.Now()
		_, bytes, err := next.SpillCold()
		if err != nil {
			return 0, fmt.Errorf("spilling: %w", err)
		}
		next.SetCacheBytes(int64(float64(bytes) * cacheShare))
		secs := (built + time.Since(t1)).Seconds()
		if !last {
			return secs, os.RemoveAll(dir)
		}
		ix, spillTo, spilled = next, dir, bytes
		return secs, nil
	})
	if err != nil {
		return err
	}
	st := ix.Internal().Stats()
	if st.SpilledBlocks != st.NumBlocks || st.NumBlocks == 0 {
		b.rep.fail("cold-sq8: %d of %d sealed blocks spilled, want all", st.SpilledBlocks, st.NumBlocks)
	}
	// The check pass also fills the cache, so the timed phase measures
	// the steady state of a cache that is too small.
	cold, recalls := b.answers(ix, wd)
	for i := range cold {
		b.rep.op(sameAnswer(inRAM[i], cold[i]))
	}
	b.checkRecall("cold-sq8", recalls, recallFloorSQ8)

	c0, _ := ix.CacheStats()
	lat, elapsed := b.closedLoop(ix, wd)
	c1, _ := ix.CacheStats()
	b.passMetrics(lat, elapsed, recalls)
	b.rep.set("heap_mb", liveHeapMB(c1.Bytes))
	b.indexCounts(ix, wd)

	hits, misses, evictions := c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Evictions-c0.Evictions
	if misses == 0 || evictions == 0 {
		b.rep.fail("cold-sq8: the timed phase had %d misses and %d evictions; the cache must be smaller than the query stream's blocks", misses, evictions)
	}
	if hits+misses > 0 {
		b.rep.set("blockcache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	b.rep.set("blockcache.misses", float64(misses))
	b.rep.set("blockcache.evictions", float64(evictions))
	b.rep.set("persist.spilled_mb", float64(spilled)/(1<<20))
	if b.tr != nil {
		b.readSegments(ix, spillTo)
	}
	return nil
}

// sameAnswer reports whether two answers list the same ids at the same
// distances.
func sameAnswer(want, got []tknn.Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("spilled index returned %d results, in-RAM index %d", len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Dist != got[i].Dist {
			return fmt.Errorf("result %d: spilled index gave id %d at %g, in-RAM index id %d at %g",
				i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
	return nil
}

// readSegments times persist.ReadSegmentFile over every spilled block,
// three passes, as persist.read_segment spans.
func (b *bench) readSegments(ix *tknn.MBI, dir string) {
	blocks := ix.Internal().Blocks()
	for pass := 0; pass < 3; pass++ {
		for id, blk := range blocks {
			if !blk.Spilled {
				continue
			}
			t0 := time.Now()
			_, _, _, _, err := persist.ReadSegmentFile(dir, id, b.sc.Dim)
			b.tr.record(-1, "persist.read_segment", t0, time.Now())
			if err != nil {
				b.rep.op(fmt.Errorf("reading segment of block %d: %w", id, err))
			}
		}
	}
}

// indexCounts records the index's structural counts: seals and blocks
// built from empty (the index was built in one pass, so every full leaf
// was sealed once), and the fixed query set's planned blocks and
// brute-force scanned vectors per query.
func (b *bench) indexCounts(ix *tknn.MBI, wd workloadData) {
	b.rep.set("core.seals", float64(ix.Len()/ix.Options().LeafSize))
	b.rep.set("core.blocks_built", float64(ix.BlockCount()))
	var blocks, scanned int
	for _, q := range wd.queries {
		plan := ix.Explain(q.Start, q.End)
		blocks += len(plan.Blocks)
		for _, blk := range plan.Blocks {
			if blk.BruteForce {
				scanned += blk.InWindow
			}
		}
	}
	if n := float64(len(wd.queries)); n > 0 {
		b.rep.set("core.blocks_per_query", float64(blocks)/n)
		b.rep.set("core.scan_vectors_per_query", float64(scanned)/n)
	}
}

var errPartial = errors.New("partial answer")
