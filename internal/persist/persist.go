// Package persist serializes indexes to a versioned little-endian binary
// format. Besides durability (the satellite example saves and reloads its
// index), serialization is how the experiments measure index size: the
// "Index Sizes" of Table 4 and Figure 7b are the byte counts these
// encoders produce, covering vectors, timestamps, and every block graph.
//
// Format history: version 1 had no integrity check, so a truncated or
// bit-rotted file could deserialize into garbage. Version 2 appends an
// 8-byte footer — magic plus the CRC32C of every preceding byte — which
// the loaders verify before restoring. Version 3 follows each MBI block's
// graph with a presence byte and, when set, the block's SQ8 codes
// (per-dim quantizer parameters, 1-byte codes, cached norms), all inside
// the CRC envelope. Version-1 and version-2 files are still read; they
// simply restore with no codes, searching flat. Version 4 lets a block
// live in its own segment file (segment.go) instead of inline.
//
// Two readers share one graph/codes parser and one set of little-endian
// array decoders. Snapshots are streamed: counts are untrusted, so the
// arrays grow in bounded chunks and the footer is checked at the end.
// Segments are small and paged in on the query path, so a segment file
// is read whole in one read, its footer CRC checked before any parsing,
// and every count bounded by the bytes left in the file.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sf"
	"repro/internal/sq"
	"repro/internal/vec"
)

// Format constants.
const (
	magic = uint32(0x4d424958) // "MBIX"
	// version 4 added a per-block location byte so spilled blocks persist
	// as segment references instead of inline payloads; version 3 added
	// optional per-block SQ8 codes; version 2 appended the CRC32C footer.
	// All predecessors remain readable.
	version         = uint32(4)
	crcVersion      = uint32(2)
	legacyVersion   = uint32(1)
	minCodeVersion  = uint32(3) // first version carrying per-block codes
	minSpillVersion = uint32(4) // first version carrying per-block location bytes

	// Per-block location byte values (v4+).
	locInline  = uint8(0) // graph (+codes) follow inline
	locSpilled = uint8(1) // payload lives in the block's segment file; u64 size follows

	kindMBI = uint8(0)
	kindSF  = uint8(1)

	footerMagic = uint32(0x4d424946) // "MBIF"
)

var order = binary.LittleEndian

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter hashes everything written through it with CRC32C, so the
// footer can vouch for the exact bytes on disk.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	if fault.Enabled {
		// Injection point persist.write: every snapshot byte funnels
		// through this writer, so an Error/Truncate rule models a disk
		// that gave out mid-serialization.
		if keep, ferr := fault.Cut("persist.write", len(p)); ferr != nil {
			n, _ := c.w.Write(p[:keep])
			c.sum = crc32.Update(c.sum, castagnoli, p[:n])
			return n, ferr
		}
	}
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

// crcReader hashes exactly the bytes the parser consumes. It must sit
// ON TOP of the bufio reader, not under it: bufio reads ahead, and
// read-ahead bytes (including the footer itself) must not enter the sum.
type crcReader struct {
	r   io.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	if fault.Enabled {
		// Injection point persist.read: a failed read while restoring a
		// snapshot — the WAL manager must fall back to an older
		// checkpoint (or the full log) instead of dying.
		if err := fault.Hit("persist.read"); err != nil {
			return 0, err
		}
	}
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

// writeFooter appends the integrity footer: magic + CRC32C of every
// preceding byte. Written past the crcWriter — the footer does not hash
// itself.
func writeFooter(w io.Writer, sum uint32) error {
	return binaryWrite(w, footerMagic, sum)
}

// verifyFooter checks the integrity footer against the bytes the parser
// consumed. Version-1 files predate the footer and are accepted as-is;
// a version-2 file with a missing or mismatched footer was truncated or
// corrupted and fails loudly.
func verifyFooter(ver uint32, r io.Reader, sum uint32) error {
	if ver < 2 {
		return nil
	}
	var m, want uint32
	if err := binaryRead(r, &m, &want); err != nil {
		return fmt.Errorf("persist: reading integrity footer (file truncated?): %w", err)
	}
	if m != footerMagic {
		return fmt.Errorf("persist: bad footer magic %#x (file truncated?)", m)
	}
	if sum != want {
		return fmt.Errorf("persist: checksum mismatch: file says %#x, content hashes to %#x", want, sum)
	}
	return nil
}

// SaveMBI writes ix to w. Outstanding asynchronous merges are flushed
// first so the file is always quiescent (restorable).
func SaveMBI(w io.Writer, ix *core.Index) error {
	ix.Flush()
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	store := ix.Store()
	times := ix.Times()
	if err := writeHeader(cw, kindMBI, ix.Options().Metric, store.Dim(), len(times)); err != nil {
		return err
	}
	if err := writeData(cw, store, times); err != nil {
		return err
	}
	opts := ix.Options()
	blocks := ix.Blocks()
	forest := ix.Forest()
	if err := writeInts(cw, uint64(opts.LeafSize), uint64(ix.OpenLo()), uint64(len(blocks)), uint64(len(forest))); err != nil {
		return err
	}
	for _, root := range forest {
		if err := writeInts(cw, uint64(root)); err != nil {
			return err
		}
	}
	for _, b := range blocks {
		if err := writeInts(cw, uint64(b.Lo), uint64(b.Hi), uint64(b.Height)); err != nil {
			return err
		}
		if b.Spilled {
			// Spilled block: the snapshot records a segment reference,
			// not the payload — recovery composes snapshot + segment
			// files + WAL suffix. The spill happened before this
			// snapshot was cut (checkpoint orders it), so the segment
			// is already durable.
			if err := binaryWrite(cw, locSpilled); err != nil {
				return err
			}
			if err := writeInts(cw, uint64(b.SegBytes)); err != nil {
				return err
			}
			continue
		}
		if err := binaryWrite(cw, locInline); err != nil {
			return err
		}
		if err := writeGraph(cw, b.Graph); err != nil {
			return err
		}
		if err := writeCodes(cw, b.Codes); err != nil {
			return err
		}
	}
	if err := writeFooter(bw, cw.sum); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadMBI reads an MBI index from r. opts supplies everything the format
// does not carry (builder, τ, search defaults, workers, seed); its Dim,
// Metric, and LeafSize must match the file.
func LoadMBI(r io.Reader, opts core.Options) (*core.Index, error) {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	ver, metric, dim, n, err := readHeader(cr, kindMBI)
	if err != nil {
		return nil, err
	}
	if opts.Dim != dim {
		return nil, fmt.Errorf("persist: file has dim %d, options say %d", dim, opts.Dim)
	}
	if opts.Metric != metric {
		return nil, fmt.Errorf("persist: file has metric %v, options say %v", metric, opts.Metric)
	}
	store, times, err := readData(cr, dim, n)
	if err != nil {
		return nil, err
	}
	var leafSize, openLo, numBlocks, numForest uint64
	if err := readInts(cr, &leafSize, &openLo, &numBlocks, &numForest); err != nil {
		return nil, err
	}
	if opts.LeafSize != int(leafSize) {
		return nil, fmt.Errorf("persist: file has leaf size %d, options say %d", leafSize, opts.LeafSize)
	}
	if numBlocks > uint64(n)+1 || numForest > numBlocks {
		return nil, fmt.Errorf("persist: implausible block counts (%d blocks, %d roots, %d vectors)", numBlocks, numForest, n)
	}
	// Grown by append rather than count-sized make: the counts are
	// untrusted (see readFloat32Slice).
	forest := make([]int, 0, minInt(int(numForest), readChunk))
	for i := uint64(0); i < numForest; i++ {
		var v uint64
		if err := readInts(cr, &v); err != nil {
			return nil, err
		}
		forest = append(forest, int(v))
	}
	blocks := make([]core.Block, 0, minInt(int(numBlocks), readChunk))
	for i := uint64(0); i < numBlocks; i++ {
		var lo, hi, height uint64
		if err := readInts(cr, &lo, &hi, &height); err != nil {
			return nil, err
		}
		loc := locInline
		if ver >= minSpillVersion {
			if err := binaryRead(cr, &loc); err != nil {
				return nil, err
			}
		}
		b := core.Block{Lo: int(lo), Hi: int(hi), Height: int(height)}
		switch loc {
		case locSpilled:
			var segBytes uint64
			if err := readInts(cr, &segBytes); err != nil {
				return nil, err
			}
			b.Spilled = true
			b.SegBytes = int64(segBytes)
		case locInline:
			g, err := readGraph(stream{cr})
			if err != nil {
				return nil, err
			}
			b.Graph = g
			if ver >= minCodeVersion {
				if b.Codes, err = readCodes(stream{cr}); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("persist: bad block location byte %d", loc)
		}
		blocks = append(blocks, b)
	}
	// Footer first: don't hand Restore bytes the checksum disowns. Read
	// from br, past the crcReader — the footer does not hash itself.
	if err := verifyFooter(ver, br, cr.sum); err != nil {
		return nil, err
	}
	return core.Restore(opts, store, times, blocks, forest, int(openLo))
}

// SaveSF writes ix to w. The index must have a built graph.
func SaveSF(w io.Writer, ix *sf.Index) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	store := ix.Store()
	times := ix.Times()
	if err := writeHeader(cw, kindSF, ix.Metric(), store.Dim(), len(times)); err != nil {
		return err
	}
	if err := writeData(cw, store, times); err != nil {
		return err
	}
	if err := writeInts(cw, uint64(ix.Built())); err != nil {
		return err
	}
	g := ix.Graph()
	if g == nil {
		g = &graph.CSR{Off: []int32{0}}
	}
	if err := writeGraph(cw, g); err != nil {
		return err
	}
	if err := writeFooter(bw, cw.sum); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSF reads an SF index from r; builder is re-attached for future
// rebuilds.
func LoadSF(r io.Reader, builder graph.Builder) (*sf.Index, error) {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	ver, metric, dim, n, err := readHeader(cr, kindSF)
	if err != nil {
		return nil, err
	}
	store, times, err := readData(cr, dim, n)
	if err != nil {
		return nil, err
	}
	ix := sf.New(dim, metric, builder)
	for i := 0; i < n; i++ {
		if err := ix.Append(store.At(i), times[i]); err != nil {
			return nil, err
		}
	}
	var built uint64
	if err := readInts(cr, &built); err != nil {
		return nil, err
	}
	g, err := readGraph(stream{cr})
	if err != nil {
		return nil, err
	}
	if err := verifyFooter(ver, br, cr.sum); err != nil {
		return nil, err
	}
	if built > 0 || g.NumNodes() > 0 {
		if err := ix.Restore(g, int(built)); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// SizeMBI returns the serialized byte size of ix without materializing it.
func SizeMBI(ix *core.Index) (int64, error) {
	var c countingWriter
	if err := SaveMBI(&c, ix); err != nil {
		return 0, err
	}
	return c.n, nil
}

// SizeSF returns the serialized byte size of ix without materializing it.
func SizeSF(ix *sf.Index) (int64, error) {
	var c countingWriter
	if err := SaveSF(&c, ix); err != nil {
		return 0, err
	}
	return c.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func writeHeader(w io.Writer, kind uint8, metric vec.Metric, dim, n int) error {
	if err := writeInts(w, uint64(magic), uint64(version)); err != nil {
		return err
	}
	return binaryWrite(w, kind, uint8(metric), uint32(dim), uint64(n))
}

func readHeader(r io.Reader, wantKind uint8) (uint32, vec.Metric, int, int, error) {
	var m, v uint64
	if err := readInts(r, &m, &v); err != nil {
		return 0, 0, 0, 0, err
	}
	if uint32(m) != magic {
		return 0, 0, 0, 0, fmt.Errorf("persist: bad magic %#x", m)
	}
	if uint32(v) < legacyVersion || uint32(v) > version {
		return 0, 0, 0, 0, fmt.Errorf("persist: unsupported version %d", v)
	}
	var kind, metric uint8
	var dim uint32
	var n uint64
	if err := binaryRead(r, &kind, &metric, &dim, &n); err != nil {
		return 0, 0, 0, 0, err
	}
	if kind != wantKind {
		return 0, 0, 0, 0, fmt.Errorf("persist: file holds index kind %d, want %d", kind, wantKind)
	}
	if !vec.Metric(metric).Valid() {
		return 0, 0, 0, 0, fmt.Errorf("persist: invalid metric %d", metric)
	}
	if dim == 0 || dim > 1<<20 {
		return 0, 0, 0, 0, fmt.Errorf("persist: implausible dimension %d", dim)
	}
	if n > 1<<40 {
		return 0, 0, 0, 0, fmt.Errorf("persist: implausible vector count %d", n)
	}
	return uint32(v), vec.Metric(metric), int(dim), int(n), nil
}

func writeData(w io.Writer, store *vec.Store, times []int64) error {
	if err := binary.Write(w, order, times); err != nil {
		return err
	}
	return binary.Write(w, order, store.Raw())
}

func readData(r io.Reader, dim, n int) (*vec.Store, []int64, error) {
	times, err := readInt64Slice(r, n)
	if err != nil {
		return nil, nil, err
	}
	buf, err := readFloat32Slice(r, n*dim)
	if err != nil {
		return nil, nil, err
	}
	store, err := vec.FromRaw(dim, buf)
	if err != nil {
		return nil, nil, err
	}
	return store, times, nil
}

// Counts in a file are untrusted: a corrupt header must not trigger a
// count-sized allocation. These readers grow their buffers in bounded
// chunks, so a truncated or garbage file fails at the first missing byte
// having allocated at most one chunk too many.
const readChunk = 1 << 20 // elements per chunk

// readChunked reads n elements of size bytes each from r. Every chunk
// goes through one reused byte buffer and is decoded onto the result by
// dec, the same little-endian helper the segment cursor uses.
func readChunked[T any](r io.Reader, n, size int, dec func([]T, []byte) []T) ([]T, error) {
	var out []T // grown by dec, which sizes each step to the chunk
	chunk := make([]byte, size*minInt(n, readChunk))
	for len(out) < n {
		c := chunk[:size*minInt(n-len(out), readChunk)]
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, err
		}
		out = dec(out, c)
	}
	return out, nil
}

func readFloat32Slice(r io.Reader, n int) ([]float32, error) {
	return readChunked(r, n, 4, appendFloat32s)
}

func readInt64Slice(r io.Reader, n int) ([]int64, error) {
	return readChunked(r, n, 8, appendInt64s)
}

func readInt32Slice(r io.Reader, n int) ([]int32, error) {
	return readChunked(r, n, 4, appendInt32s)
}

func readUint8Slice(r io.Reader, n int) ([]uint8, error) {
	return readChunked(r, n, 1, appendUint8s)
}

// appendInt32s decodes src as little-endian int32s onto dst; a partial
// trailing element is ignored (callers pass whole elements). The main
// loop takes four elements per two 8-byte loads rather than one load
// per element: int32 adjacency is the bulk of a segment decode.
func appendInt32s(dst []int32, src []byte) []int32 {
	n := len(dst)
	dst = append(dst, make([]int32, len(src)/4)...)
	out := dst[n:]
	for len(out) >= 4 && len(src) >= 16 {
		lo, hi := order.Uint64(src[:8]), order.Uint64(src[8:16])
		out[0], out[1] = int32(uint32(lo)), int32(uint32(lo>>32))
		out[2], out[3] = int32(uint32(hi)), int32(uint32(hi>>32))
		out, src = out[4:], src[16:]
	}
	for i := range out {
		out[i] = int32(order.Uint32(src[4*i:]))
	}
	return dst
}

// appendFloat32s decodes src as little-endian IEEE float32s onto dst,
// unrolled like appendInt32s (float32 vectors are the bulk of a
// snapshot).
func appendFloat32s(dst []float32, src []byte) []float32 {
	n := len(dst)
	dst = append(dst, make([]float32, len(src)/4)...)
	out := dst[n:]
	for len(out) >= 4 && len(src) >= 16 {
		lo, hi := order.Uint64(src[:8]), order.Uint64(src[8:16])
		out[0], out[1] = math.Float32frombits(uint32(lo)), math.Float32frombits(uint32(lo>>32))
		out[2], out[3] = math.Float32frombits(uint32(hi)), math.Float32frombits(uint32(hi>>32))
		out, src = out[4:], src[16:]
	}
	for i := range out {
		out[i] = math.Float32frombits(order.Uint32(src[4*i:]))
	}
	return dst
}

// appendInt64s decodes src as little-endian int64s onto dst.
func appendInt64s(dst []int64, src []byte) []int64 {
	for i := 0; i+8 <= len(src); i += 8 {
		dst = append(dst, int64(order.Uint64(src[i:i+8])))
	}
	return dst
}

// appendUint8s copies src onto dst: bytes need no decoding, but they
// must not alias the buffer they were read into.
func appendUint8s(dst, src []uint8) []uint8 {
	return append(dst, src...)
}

// decoder is what the graph and codes parsers read from: a stream for
// snapshot loads, a cursor over an in-memory body for segment loads
// (segment.go). Counts handed to it are untrusted, so each
// implementation bounds its allocations — a stream grows its result in
// chunks, a cursor refuses a count larger than the bytes it has left —
// and every slice it returns is owned by the caller.
type decoder interface {
	readInts(vs ...*uint64) error
	readUint8() (uint8, error)
	int32s(n int) ([]int32, error)
	float32s(n int) ([]float32, error)
	uint8s(n int) ([]uint8, error)
}

// stream is the decoder over an io.Reader, built on the chunked readers.
type stream struct{ r io.Reader }

func (s stream) readInts(vs ...*uint64) error { return readInts(s.r, vs...) }

func (s stream) readUint8() (uint8, error) {
	var v uint8
	err := binaryRead(s.r, &v)
	return v, err
}

func (s stream) int32s(n int) ([]int32, error)     { return readInt32Slice(s.r, n) }
func (s stream) float32s(n int) ([]float32, error) { return readFloat32Slice(s.r, n) }
func (s stream) uint8s(n int) ([]uint8, error)     { return readUint8Slice(s.r, n) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func writeGraph(w io.Writer, g *graph.CSR) error {
	if err := writeInts(w, uint64(len(g.Off)), uint64(len(g.Adj))); err != nil {
		return err
	}
	if err := binary.Write(w, order, g.Off); err != nil {
		return err
	}
	return binary.Write(w, order, g.Adj)
}

func readGraph(d decoder) (*graph.CSR, error) {
	var nOff, nAdj uint64
	if err := d.readInts(&nOff, &nAdj); err != nil {
		return nil, err
	}
	if nOff > 1<<40 || nAdj > 1<<40 {
		return nil, fmt.Errorf("persist: implausible graph sizes (%d offsets, %d edges)", nOff, nAdj)
	}
	off, err := d.int32s(int(nOff))
	if err != nil {
		return nil, err
	}
	adj, err := d.int32s(int(nAdj))
	if err != nil {
		return nil, err
	}
	g := &graph.CSR{Off: off, Adj: adj}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return g, nil
}

// writeCodes serializes a block's optional SQ8 section: a presence byte,
// then — when present — the code dimensions followed by the quantizer
// parameters, the packed codes, and the cached norms. All of it flows
// through the caller's crcWriter, so the existing footer vouches for the
// codes byte-for-byte.
func writeCodes(w io.Writer, c *sq.Codes) error {
	if c == nil {
		return binaryWrite(w, uint8(0))
	}
	if err := binaryWrite(w, uint8(1)); err != nil {
		return err
	}
	if err := writeInts(w, uint64(c.Dim), uint64(c.N)); err != nil {
		return err
	}
	if err := binary.Write(w, order, c.Min); err != nil {
		return err
	}
	if err := binary.Write(w, order, c.Step); err != nil {
		return err
	}
	if _, err := w.Write(c.Data); err != nil {
		return err
	}
	return binary.Write(w, order, c.Norms)
}

// readCodes reads the optional SQ8 section written by writeCodes. The
// counts are untrusted (bounded by the decoder); the decoded structure is
// validated before use so a corrupt-but-CRC-passing section still cannot
// produce an inconsistent quantizer.
func readCodes(d decoder) (*sq.Codes, error) {
	present, err := d.readUint8()
	if err != nil {
		return nil, err
	}
	switch present {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("persist: bad codes presence byte %d", present)
	}
	var dim, n uint64
	if err := d.readInts(&dim, &n); err != nil {
		return nil, err
	}
	if dim == 0 || dim > 1<<20 || n > 1<<40 {
		return nil, fmt.Errorf("persist: implausible code sizes (dim %d, %d rows)", dim, n)
	}
	c := &sq.Codes{Dim: int(dim), N: int(n)}
	if c.Min, err = d.float32s(int(dim)); err != nil {
		return nil, err
	}
	if c.Step, err = d.float32s(int(dim)); err != nil {
		return nil, err
	}
	if c.Data, err = d.uint8s(int(dim) * int(n)); err != nil {
		return nil, err
	}
	if c.Norms, err = d.float32s(int(n)); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return c, nil
}

func writeInts(w io.Writer, vs ...uint64) error {
	for _, v := range vs {
		if err := binary.Write(w, order, v); err != nil {
			return err
		}
	}
	return nil
}

func readInts(r io.Reader, vs ...*uint64) error {
	for _, v := range vs {
		if err := binary.Read(r, order, v); err != nil {
			return err
		}
	}
	return nil
}

func binaryWrite(w io.Writer, vs ...any) error {
	for _, v := range vs {
		if err := binary.Write(w, order, v); err != nil {
			return err
		}
	}
	return nil
}

func binaryRead(r io.Reader, vs ...any) error {
	for _, v := range vs {
		if err := binary.Read(r, order, v); err != nil {
			return err
		}
	}
	return nil
}
