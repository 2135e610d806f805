package persist

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sq"
	"repro/internal/wal"
)

// TestLoadNeverPanicsOnCorruptInput flips, truncates, and splices random
// bytes into valid index files and asserts the loaders always return an
// error or a valid index — never panic, never hang. This is the safety
// property a durable format must have: a torn write or disk corruption
// must not take the process down.
func TestLoadNeverPanicsOnCorruptInput(t *testing.T) {
	ix := buildMBI(t, 40)
	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(99))

	check := func(raw []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("LoadMBI panicked on corrupt input: %v", r)
			}
		}()
		got, err := LoadMBI(bytes.NewReader(raw), ix.Options())
		if err == nil && got != nil {
			// Rarely a mutation leaves the file valid; the result must
			// then be structurally sound.
			if invErr := got.CheckInvariants(); invErr != nil {
				t.Fatalf("loader accepted corrupt file with broken invariants: %v", invErr)
			}
		}
	}

	for trial := 0; trial < 300; trial++ {
		raw := append([]byte{}, valid...)
		switch trial % 4 {
		case 0: // flip 1-8 random bytes
			for f := 0; f <= rng.Intn(8); f++ {
				raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate at a random point
			raw = raw[:rng.Intn(len(raw))]
		case 2: // duplicate a random chunk into a random offset
			lo := rng.Intn(len(raw))
			hi := lo + rng.Intn(len(raw)-lo)
			at := rng.Intn(len(raw))
			raw = append(raw[:at], append(append([]byte{}, raw[lo:hi]...), raw[at:]...)...)
		case 3: // random garbage of the same length
			rng.Read(raw)
		}
		check(raw)
	}
}

// countTarget is the minimal wal.Target for replay fuzzing: it accepts
// everything and counts.
type countTarget struct{ n int }

func (c *countTarget) Add(v []float32, t int64) error { c.n++; return nil }
func (c *countTarget) Save(io.Writer) error           { return nil }
func (c *countTarget) Len() int                       { return c.n }

// TestWALRecordReplayNeverPanics extends the corrupt-input sweep to the
// WAL record format: mutate a valid segment the way torn writes and bit
// rot would and assert wal.Replay always returns an error or a
// self-consistent record count — never panics, never hangs. Durability
// holds only if both layers (snapshot files above, log records here)
// survive arbitrary corruption.
func TestWALRecordReplayNeverPanics(t *testing.T) {
	src := t.TempDir()
	m, err := wal.Open(wal.Config{Dir: src, Sync: wal.SyncNever},
		func(io.Reader) (wal.Target, error) { return &countTarget{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	v := make([]float32, 6)
	for i := 0; i < 40; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := m.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segName := ""
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segName = e.Name()
		}
	}
	if segName == "" {
		t.Fatal("no segment written")
	}
	valid, err := os.ReadFile(filepath.Join(src, segName))
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 300; trial++ {
		raw := append([]byte{}, valid...)
		switch trial % 4 {
		case 0: // flip 1-8 random bytes
			for f := 0; f <= rng.Intn(8); f++ {
				raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate at a random point
			raw = raw[:rng.Intn(len(raw))]
		case 2: // duplicate a random chunk into a random offset
			lo := rng.Intn(len(raw))
			hi := lo + rng.Intn(len(raw)-lo)
			at := rng.Intn(len(raw))
			raw = append(raw[:at], append(append([]byte{}, raw[lo:hi]...), raw[at:]...)...)
		case 3: // random garbage of the same length
			rng.Read(raw)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("wal.Replay panicked on corrupt segment (trial %d): %v", trial, r)
				}
			}()
			var applied uint64
			stats, err := wal.Replay(dir, 0, func(seq uint64, ts int64, v []float32) error {
				applied++
				return nil
			})
			if err == nil && stats.Applied != applied {
				t.Fatalf("trial %d: stats say %d applied, callback saw %d", trial, stats.Applied, applied)
			}
		}()
	}
}

// TestLoadSFNeverPanics mirrors the MBI fuzz for the SF format.
func TestLoadSFNeverPanics(t *testing.T) {
	ix := buildMBI(t, 20) // reuse data via MBI, then save as garbage input source
	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		raw := append([]byte{}, valid...)
		for f := 0; f <= rng.Intn(6); f++ {
			raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadSF panicked: %v", r)
				}
			}()
			// Any outcome but a panic is acceptable; kind mismatch is the
			// common path since this is an MBI file.
			_, _ = LoadSF(bytes.NewReader(raw), nil)
		}()
	}
}

// FuzzReadSegment feeds arbitrary bytes to the segment decoder. The
// identity it is asked to check (block id, dim) is taken from the
// input's own header, so mutations reach past the identity checks. The
// decoder must never panic; anything it accepts must re-encode
// byte-identically through WriteSegment (the format has one encoding
// per payload); and the same bytes with anything appended after the
// footer must be rejected.
func FuzzReadSegment(f *testing.F) {
	g, codes := segPayload(f)
	for _, c := range []*sq.Codes{nil, codes} {
		var buf bytes.Buffer
		if err := WriteSegment(&buf, 3, 16, 32, 1, 6, g, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Header words: magic, version, id, lo, hi, height, dim.
		var id, height, dim int
		if len(raw) >= 7*8 {
			id = int(order.Uint64(raw[16:]))
			height = int(order.Uint64(raw[40:]))
			dim = int(order.Uint64(raw[48:]))
		}
		g, c, lo, hi, err := ReadSegment(bytes.NewReader(raw), id, dim)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteSegment(&again, id, lo, hi, height, dim, g, c); err != nil {
			t.Fatalf("re-encoding an accepted segment: %v", err)
		}
		if !bytes.Equal(again.Bytes(), raw) {
			t.Fatalf("accepted segment re-encodes to %d different bytes (input %d)", again.Len(), len(raw))
		}
		for _, tail := range [][]byte{{0}, raw[len(raw)-8:]} {
			long := append(append([]byte{}, raw...), tail...)
			if _, _, _, _, err := ReadSegment(bytes.NewReader(long), id, dim); err == nil {
				t.Fatalf("accepted a segment with %d bytes after the footer", len(tail))
			}
		}
	})
}
