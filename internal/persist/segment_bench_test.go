package persist

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sq"
	"repro/internal/vec"
)

// benchBlock builds the payload of one full-size spilled block: n rows
// at dim, a fixed-degree graph of distinct random neighbours (no
// self-loops), and SQ8 codes trained over the rows.
func benchBlock(n, dim, degree int) (*graph.CSR, *sq.Codes) {
	rng := rand.New(rand.NewSource(1))
	store := vec.NewStore(dim)
	v := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if _, err := store.Append(v); err != nil {
			panic(err)
		}
	}
	g := &graph.CSR{Off: make([]int32, 0, n+1), Adj: make([]int32, 0, n*degree)}
	g.Off = append(g.Off, 0)
	for i := 0; i < n; i++ {
		seen := map[int32]bool{int32(i): true}
		for len(seen) <= degree {
			nb := int32(rng.Intn(n))
			if !seen[nb] {
				seen[nb] = true
				g.Adj = append(g.Adj, nb)
			}
		}
		g.Off = append(g.Off, int32(len(g.Adj)))
	}
	return g, sq.Train(store, 0, n, sq.TrainConfig{})
}

// sinkCSR keeps the benchmarked read's result live.
var sinkCSR *graph.CSR

// BenchmarkReadSegmentFile pages in one 4,096-row SQ8 block at dim 64
// and degree 16, the block shape cold queries fetch: open, read, CRC,
// decode and validate. Run with -benchmem; the file stays in the page
// cache, so this measures decode work, not the disk.
func BenchmarkReadSegmentFile(b *testing.B) {
	const n, dim, degree = 4096, 64, 16
	g, codes := benchBlock(n, dim, degree)
	dir := b.TempDir()
	size, err := WriteSegmentFile(dir, 7, 0, n, 3, dim, g, codes)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g2, _, _, _, err := ReadSegmentFile(dir, 7, dim)
		if err != nil {
			b.Fatal(err)
		}
		sinkCSR = g2
	}
}
