package core

import (
	"context"
	"fmt"

	"repro/internal/blockcache"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/sq"
)

// SpillConfig wires tiered storage into an index. The I/O endpoints are
// injected as closures because the segment codec lives in
// internal/persist, which imports core: persist.SegmentSpill builds the
// config that connects them.
type SpillConfig struct {
	// Write durably persists one block's payload as an independently
	// loadable segment (write to a temp file, fsync, rename) and returns
	// its on-disk byte size. SpillCold only releases a block's RAM after
	// Write returns nil, so a failed or torn write never loses state.
	Write func(id, lo, hi, height int, g *graph.CSR, c *sq.Codes) (int64, error)
	// Load reads one spilled block's payload back. It runs inside the
	// block cache's loader — possibly while queries hold the index read
	// lock — so it must not touch the index.
	Load blockcache.LoadFunc
	// MaxHeight is the cold threshold: sealed blocks of height <=
	// MaxHeight are spill-eligible; taller blocks (the upper levels that
	// nearly every query selects) stay RAM-resident, as does the open
	// leaf, which is never a block at all.
	MaxHeight int
	// CacheBytes bounds the resident bytes of paged-in cold payloads;
	// <= 0 means unbounded.
	CacheBytes int64
}

func (c *SpillConfig) validate() error {
	if c.Write == nil || c.Load == nil {
		return fmt.Errorf("mbi: SpillConfig requires both Write and Load")
	}
	if c.MaxHeight < 0 {
		return fmt.Errorf("mbi: SpillConfig.MaxHeight must be non-negative, got %d", c.MaxHeight)
	}
	return nil
}

// newBlockCache builds the block cache for opts; nil when tiered
// storage is disabled.
func newBlockCache(opts Options) *blockcache.Cache {
	if opts.Spill == nil {
		return nil
	}
	return blockcache.New(opts.Spill.CacheBytes, opts.Spill.Load)
}

// spillCand snapshots one cold candidate so segment writes can run
// outside the index locks: blocks are immutable once installed, so the
// graph and codes pointers stay valid after the read lock is released.
type spillCand struct {
	id, lo, hi, height int
	g                  *graph.CSR
	codes              *sq.Codes
}

// SpillCold writes every cold block (sealed, height <= Spill.MaxHeight,
// still RAM-resident) to its own segment and releases the in-RAM graph
// and codes only after the segment write has returned — so a crash or
// write failure at any point leaves the index lossless. It returns the
// number of blocks spilled and their total segment bytes. With no spill
// configured it is a no-op.
//
// The WAL manager calls this (through the wal.Spiller interface) at the
// start of every checkpoint, so the snapshot that records a block as
// spilled is always written after the block's segment is durable.
// SpillCold is single-writer, like Append: concurrent callers may write
// the same segment twice (harmless — block payloads are deterministic)
// but must not interleave with each other.
func (ix *Index) SpillCold() (int, int64, error) {
	cfg := ix.opts.Spill
	if cfg == nil {
		return 0, 0, nil
	}
	ix.mu.RLock()
	var cands []spillCand
	for id, b := range ix.blocks {
		if !b.Spilled && b.Height <= cfg.MaxHeight {
			cands = append(cands, spillCand{id: id, lo: b.Lo, hi: b.Hi, height: b.Height, g: b.Graph, codes: b.Codes})
		}
	}
	ix.mu.RUnlock()
	if len(cands) == 0 {
		return 0, 0, nil
	}

	// Segment writes run unlocked; appends and queries proceed. A failed
	// write aborts the pass with the blocks written so far released and
	// the rest untouched — never a half-released block.
	written := make([]int64, 0, len(cands))
	var total int64
	for i, c := range cands {
		n, err := cfg.Write(c.id, c.lo, c.hi, c.height, c.g, c.codes)
		if err != nil {
			ix.releaseSpilled(cands[:i], written)
			return i, total, fmt.Errorf("mbi: spilling block %d [%d,%d): %w", c.id, c.lo, c.hi, err)
		}
		written = append(written, n)
		total += n
	}
	ix.releaseSpilled(cands, written)
	return len(cands), total, nil
}

// releaseSpilled drops the RAM payload of blocks whose segments are
// durable. Caller must not hold mu.
func (ix *Index) releaseSpilled(cands []spillCand, bytes []int64) {
	if len(cands) == 0 {
		return
	}
	ix.mu.Lock()
	for i, c := range cands {
		b := &ix.blocks[c.id]
		if b.Spilled {
			continue
		}
		b.Graph = nil
		b.Codes = nil
		b.Spilled = true
		b.SegBytes = bytes[i]
	}
	if invariant.Enabled {
		invariant.NoError(ix.checkInvariantsLocked(), "mbi: after spill release")
	}
	ix.mu.Unlock()
}

// SetCacheBytes replaces the block cache with a fresh one bounded to n
// bytes (n <= 0 unbounded). Counters reset and the resident set starts
// empty; used by the tier benchmark to sweep budgets. Panics without
// tiered storage configured.
func (ix *Index) SetCacheBytes(n int64) {
	if ix.opts.Spill == nil {
		panic("mbi: SetCacheBytes without Options.Spill")
	}
	ix.mu.Lock()
	ix.cache = blockcache.New(n, ix.opts.Spill.Load)
	ix.mu.Unlock()
}

// CacheStats reports the block cache counters; ok is false when tiered
// storage is disabled.
func (ix *Index) CacheStats() (blockcache.Stats, bool) {
	ix.mu.RLock()
	c := ix.cache
	ix.mu.RUnlock()
	if c == nil {
		return blockcache.Stats{}, false
	}
	return c.Stats(), true
}

// FetchBlock pages one spilled block's payload through the cache and
// returns it unpinned — for tests and diagnostics, not the query path
// (the executor pins across its kernels).
func (ix *Index) FetchBlock(ctx context.Context, id int) (blockcache.Value, error) {
	ix.mu.RLock()
	c := ix.cache
	ix.mu.RUnlock()
	if c == nil {
		return blockcache.Value{}, fmt.Errorf("mbi: tiered storage not configured")
	}
	v, err := c.Get(ctx, uint64(id))
	if err != nil {
		return blockcache.Value{}, err
	}
	c.Unpin(uint64(id))
	return v, nil
}
