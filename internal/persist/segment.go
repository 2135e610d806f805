package persist

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sq"
)

// Per-block segment files: tiered storage spills one sealed block's
// payload (graph + optional SQ8 codes) into one independently loadable
// file, reusing the v3 block encoding inside its own CRC envelope.
//
// Layout (all little-endian, hashed by the footer's CRC32C):
//
//	u64 segMagic, u64 segVersion
//	u64 blockID, u64 lo, u64 hi, u64 height, u64 dim
//	graph   (writeGraph: off/adj lengths + data)
//	codes   (writeCodes: presence byte + payload)
//	u32 footerMagic, u32 crc32c   (past the hash, like the snapshot footer)
//
// A segment is read whole in one read and its footer CRC checked before
// anything is parsed. Counts are still untrusted — the cursor checks
// each against the bytes left before allocating — and the decoded
// structures are cross-validated against the header (node count ==
// hi-lo) before the payload is accepted, so a corrupt-but-CRC-passing
// segment still cannot reach a kernel.
const (
	segMagic   = uint64(0x4d424953) // "MBIS"
	segVersion = uint64(1)

	// segMinBytes is the smallest well-formed segment: header, the two
	// graph lengths, the codes presence byte, and the footer.
	segMinBytes = 7*8 + 2*8 + 1 + 8
	// segMaxBytes rejects a segment file too large to be one block's
	// payload before a buffer of its size is allocated.
	segMaxBytes = 1 << 36
)

// segFaultWriter routes segment bytes through the persist.segment.write
// injection point: a Truncate rule models the process dying (or the
// disk giving out) partway through a spill. It sits under the
// crcWriter so injected short writes corrupt the file exactly like a
// real torn write would.
type segFaultWriter struct {
	w io.Writer
}

func (s *segFaultWriter) Write(p []byte) (int, error) {
	if fault.Enabled {
		if keep, ferr := fault.Cut("persist.segment.write", len(p)); ferr != nil {
			n, _ := s.w.Write(p[:keep])
			return n, ferr
		}
	}
	return s.w.Write(p)
}

// WriteSegment encodes one block payload to w. id/lo/hi/height identify
// the block; dim is the index dimension (validated on load). g must be
// non-nil; codes may be nil.
func WriteSegment(w io.Writer, id, lo, hi, height, dim int, g *graph.CSR, codes *sq.Codes) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: &segFaultWriter{w: bw}}
	if err := writeInts(cw, segMagic, segVersion); err != nil {
		return err
	}
	if err := writeInts(cw, uint64(id), uint64(lo), uint64(hi), uint64(height), uint64(dim)); err != nil {
		return err
	}
	if err := writeGraph(cw, g); err != nil {
		return err
	}
	if err := writeCodes(cw, codes); err != nil {
		return err
	}
	// Footer past the hash, like the snapshot footer: it vouches for
	// everything before itself.
	if err := writeFooter(bw, cw.sum); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSegment decodes one block payload from r, verifying the CRC
// footer and that the segment describes block wantID of a wantDim
// index. It returns the graph, the optional codes, and the block range
// the segment claims; the caller must check that range against its own
// block table before using the payload. It reads r to EOF and decodes
// exactly as ReadSegmentFile does.
func ReadSegment(r io.Reader, wantID, wantDim int) (*graph.CSR, *sq.Codes, int, int, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: reading segment: %w", err)
	}
	return decodeSegment(raw, wantID, wantDim)
}

// decodeSegment parses one whole segment held in raw: footer and CRC
// first, then the body through a cursor. Nothing it returns aliases raw.
func decodeSegment(raw []byte, wantID, wantDim int) (*graph.CSR, *sq.Codes, int, int, error) {
	if fault.Enabled {
		// Injection point persist.read: a failed segment read — the
		// block-cache load fails and the query degrades to Partial.
		if err := fault.Hit("persist.read"); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	if len(raw) < segMinBytes {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment of %d bytes is shorter than the smallest segment (truncated?)", len(raw))
	}
	// The footer vouches for every byte before it; nothing is parsed
	// until it does.
	body, foot := raw[:len(raw)-8], raw[len(raw)-8:]
	if m := order.Uint32(foot); m != footerMagic {
		return nil, nil, 0, 0, fmt.Errorf("persist: bad footer magic %#x (file truncated?)", m)
	}
	if want, sum := order.Uint32(foot[4:]), crc32.Checksum(body, castagnoli); sum != want {
		return nil, nil, 0, 0, fmt.Errorf("persist: checksum mismatch: file says %#x, content hashes to %#x", want, sum)
	}
	c := &cursor{b: body}
	var m, ver uint64
	if err := c.readInts(&m, &ver); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment header: %w", err)
	}
	if m != segMagic {
		return nil, nil, 0, 0, fmt.Errorf("persist: bad segment magic %#x", m)
	}
	if ver != segVersion {
		return nil, nil, 0, 0, fmt.Errorf("persist: unsupported segment version %d", ver)
	}
	var id, lo, hi, height, dim uint64
	if err := c.readInts(&id, &lo, &hi, &height, &dim); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment header: %w", err)
	}
	if id != uint64(wantID) {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment holds block %d, want %d", id, wantID)
	}
	if dim != uint64(wantDim) {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment has dim %d, want %d", dim, wantDim)
	}
	if lo > hi || hi > 1<<40 || height > 64 {
		return nil, nil, 0, 0, fmt.Errorf("persist: implausible segment range [%d,%d) height %d", lo, hi, height)
	}
	g, err := readGraph(c)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	codes, err := readCodes(c)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if len(c.b) != 0 {
		return nil, nil, 0, 0, fmt.Errorf("persist: %d stray bytes between segment codes and footer", len(c.b))
	}
	// Structural cross-checks after the CRC: a valid checksum proves the
	// bytes are what was written, not that what was written matches this
	// block.
	n := int(hi - lo)
	if g.NumNodes() != n {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment graph has %d nodes for range [%d,%d)", g.NumNodes(), lo, hi)
	}
	if codes != nil && (codes.N != n || codes.Dim != wantDim) {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment codes cover %d rows (dim %d) for range [%d,%d)", codes.N, codes.Dim, lo, hi)
	}
	return g, codes, int(lo), int(hi), nil
}

// cursor is the decoder over a segment body held in memory. Each read
// checks the bytes left before it allocates, so a corrupt count fails
// without an allocation larger than the file; decoded arrays are
// exact-size copies, never views of the body.
type cursor struct{ b []byte }

// take consumes n elements of size bytes each.
func (c *cursor) take(n, size int) ([]byte, error) {
	if n < 0 || n > len(c.b)/size {
		return nil, fmt.Errorf("persist: segment section of %d×%d bytes overruns the %d bytes left: %w", n, size, len(c.b), io.ErrUnexpectedEOF)
	}
	p := c.b[:n*size]
	c.b = c.b[n*size:]
	return p, nil
}

func (c *cursor) readInts(vs ...*uint64) error {
	for _, v := range vs {
		p, err := c.take(1, 8)
		if err != nil {
			return err
		}
		*v = order.Uint64(p)
	}
	return nil
}

func (c *cursor) readUint8() (uint8, error) {
	p, err := c.take(1, 1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (c *cursor) int32s(n int) ([]int32, error) {
	p, err := c.take(n, 4)
	if err != nil {
		return nil, err
	}
	return appendInt32s(nil, p), nil
}

func (c *cursor) float32s(n int) ([]float32, error) {
	p, err := c.take(n, 4)
	if err != nil {
		return nil, err
	}
	return appendFloat32s(nil, p), nil
}

func (c *cursor) uint8s(n int) ([]uint8, error) {
	p, err := c.take(n, 1)
	if err != nil {
		return nil, err
	}
	// A clone, not a view: the body may be a pooled read buffer.
	return bytes.Clone(p), nil
}

// SegmentFileName is the on-disk name of block id's segment.
func SegmentFileName(id int) string {
	return fmt.Sprintf("block-%08d.seg", id)
}

// WriteSegmentFile durably writes one block's segment into dir using
// the temp-file + fsync + rename + dir-sync discipline: a crash at any
// point leaves either no segment or a complete one — a torn temp file
// is never picked up because loads open only the final name. It
// returns the segment's byte size.
func WriteSegmentFile(dir string, id, lo, hi, height, dim int, g *graph.CSR, codes *sq.Codes) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	final := filepath.Join(dir, SegmentFileName(id))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err := WriteSegment(f, id, lo, hi, height, dim, g, codes); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := syncSegDir(dir); err != nil {
		return 0, err
	}
	return size, nil
}

// segReadBufs recycles ReadSegmentFile's read buffers. A cold query
// pages in whole segments; a fresh file-sized buffer per load would be
// zeroed only to be thrown away after the decode copies out of it.
var segReadBufs = sync.Pool{New: func() any { return new([]byte) }}

// ReadSegmentFile loads block id's segment from dir, verifying identity
// and integrity, and returns the payload plus the block range the
// segment claims. The file is read whole in one read into a pooled
// buffer, so every count in it is bounded by the file's length.
func ReadSegmentFile(dir string, id, dim int) (*graph.CSR, *sq.Codes, int, int, error) {
	f, err := os.Open(filepath.Join(dir, SegmentFileName(id)))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer f.Close() // read-only: a failed Close loses nothing
	info, err := f.Stat()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	size := info.Size()
	if size < segMinBytes || size > segMaxBytes {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment %s has implausible size %d", f.Name(), size)
	}
	bp := segReadBufs.Get().(*[]byte)
	defer segReadBufs.Put(bp)
	if int64(cap(*bp)) < size {
		*bp = make([]byte, size)
	}
	buf := (*bp)[:size]
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: reading segment %s: %w", f.Name(), err)
	}
	return decodeSegment(buf, id, dim)
}

// SegmentSpill wires a core index's tiered storage to segment files in
// dir for a dim-dimensional index: Write spills with WriteSegmentFile,
// Load pages a block back with ReadSegmentFile. maxHeight and
// cacheBytes become the config's MaxHeight and CacheBytes.
func SegmentSpill(dir string, dim, maxHeight int, cacheBytes int64) *core.SpillConfig {
	return &core.SpillConfig{
		Write: func(id, lo, hi, height int, g *graph.CSR, c *sq.Codes) (int64, error) {
			return WriteSegmentFile(dir, id, lo, hi, height, dim, g, c)
		},
		Load: func(ctx context.Context, key uint64) (blockcache.Value, error) {
			g, c, _, _, err := ReadSegmentFile(dir, int(key), dim)
			if err != nil {
				return blockcache.Value{}, err
			}
			return blockcache.Value{Graph: g, Codes: c}, nil
		},
		MaxHeight:  maxHeight,
		CacheBytes: cacheBytes,
	}
}

// syncSegDir fsyncs a directory so a just-renamed segment's entry is
// durable (the WAL package keeps its own private copy of this helper).
func syncSegDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}
