package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	tknn "repro"
	"repro/internal/server"
	"repro/internal/wal"
)

// served is a running tknnd equivalent: a write-ahead-logged MBI behind
// the durable HTTP server on a loopback listener.
type served struct {
	dir  string
	m    *wal.Manager
	ix   *tknn.MBI
	hs   *http.Server
	url  string
	done chan error
	// recordBytes is the WAL's size per logged vector, measured while
	// preloading; preloadSeq is the WAL position of the preload's
	// checkpoint.
	recordBytes int64
	preloadSeq  uint64
}

// daemonOptions is the benchmark's index shape with tknnd's flag
// defaults for τ and ε.
func (sc scale) daemonOptions() tknn.MBIOptions {
	o := sc.mbiOptions()
	o.Tau, o.Epsilon = 0.5, 1.2
	return o
}

// walConfig fsyncs every acknowledged batch and never checkpoints on its
// own: the writer asks for checkpoints at fixed WAL positions, so every
// run snapshots the same states.
func walConfig(dir string) wal.Config {
	return wal.Config{Dir: dir, Sync: wal.SyncAlways}
}

func restoreFunc(opts tknn.MBIOptions) wal.RestoreFunc {
	return func(snapshot io.Reader) (wal.Target, error) {
		if snapshot == nil {
			return tknn.NewMBI(opts)
		}
		return tknn.LoadMBI(snapshot, opts)
	}
}

// startServed opens an empty data directory, preloads the history one
// leaf per AppendBatch, checkpoints, and starts serving.
func (b *bench) startServed(wd workloadData) (*served, error) {
	dir, err := os.MkdirTemp(b.dir, "wal-")
	if err != nil {
		return nil, err
	}
	opts := b.sc.daemonOptions()
	m, err := wal.Open(walConfig(dir), restoreFunc(opts))
	if err != nil {
		return nil, err
	}
	sv := &served{dir: dir, m: m, ix: m.Index().(*tknn.MBI)}
	before := m.Stats().WALBytes
	for lo := 0; lo < b.sc.Preload; lo += b.sc.Leaf {
		hi := min(lo+b.sc.Leaf, b.sc.Preload)
		vs := make([][]float32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			vs = append(vs, wd.d.Train.At(i))
		}
		t0 := time.Now()
		if err := m.AppendBatch(vs, wd.d.Times[lo:hi]); err != nil {
			_ = m.Close()
			return nil, fmt.Errorf("preloading [%d, %d): %w", lo, hi, err)
		}
		if b.tr != nil && hi%b.sc.Leaf == 0 {
			b.tr.record(-1, "core.seal", t0, time.Now())
		}
	}
	sv.recordBytes = (m.Stats().WALBytes - before) / int64(b.sc.Preload)
	info, err := m.Checkpoint()
	if err != nil {
		_ = m.Close()
		return nil, fmt.Errorf("checkpointing the preload: %w", err)
	}
	sv.preloadSeq = info.Seq
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = m.Close()
		return nil, err
	}
	sv.url = "http://" + ln.Addr().String()
	sv.hs = &http.Server{Handler: server.NewDurable(sv.ix, m), ReadHeaderTimeout: 10 * time.Second}
	sv.done = make(chan error, 1)
	go func() { sv.done <- sv.hs.Serve(ln) }()
	return sv, nil
}

// stop drains the server and closes the WAL.
func (sv *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sv.hs.Shutdown(ctx)
	if serr := <-sv.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, sv.m.Close())
}

// roundQueries is the searches in one serve-ingest round: enough to
// leave minTail beyond the round's p99.
const roundQueries = minTail * 100

// serveIngest: the durable server with a preloaded history, one writer
// connection posting small batches and one reader connection posting
// searches, both on open-loop schedules. Searches stay inside the
// preloaded history, so their ground truth is fixed.
//
// The timed phase is split into rounds of roundQueries searches. Each
// round starts a fresh server over the same preload, so every round
// replays the same operation sequence, including the one long seal
// cascade that sets the round's p99. One such stall is a single second of
// CPU work, and on a shared host that varies by a fifth from one second
// to the next; query_p99_ms is the median of the rounds' p99s, and
// setup_s the median of their set-ups. After the last round its manager
// is closed and reopened over the same directory.
func (b *bench) serveIngest() error {
	sc := b.sc
	rounds := max(1, int(sc.ReadRate*b.dur.Seconds())/roundQueries)
	roundDur := b.dur / time.Duration(rounds)
	batches := int(sc.WriteRate * roundDur.Seconds())
	wd := makeData(sc, b.seed, sc.Preload+batches*batchSize, sc.Preload)
	b.data = wd.d

	var setupSecs, p99s []float64
	var all, tr trafficResult
	var fsyncs, logged, acked int64
	var shed float64
	var sv *served
	for r := 0; r < rounds; r++ {
		if sv != nil {
			if err := errors.Join(sv.stop(), os.RemoveAll(sv.dir)); err != nil {
				return fmt.Errorf("stopping round %d: %w", r-1, err)
			}
		}
		t0 := time.Now()
		var err error
		if sv, err = b.startServed(wd); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		w0 := sv.m.Stats()
		tr = b.traffic(sv, wd, roundDur, batches)
		w1 := sv.m.Stats()

		p99s = append(p99s, b.rep.percentile("query_p99_ms", tr.queryLat, 0.99))
		all.add(tr)
		fsyncs += int64(w1.Fsyncs - w0.Fsyncs)
		logged += int64(w1.Appended-w0.Appended) * sv.recordBytes
		acked += int64(tr.acked)
		if n, err := shedCount(sv.url); err != nil {
			b.rep.op(fmt.Errorf("reading /metrics: %w", err))
		} else {
			shed += n
		}
	}

	b.rep.setN("qps", float64(len(all.queryLat))/all.span, len(all.queryLat))
	b.rep.setPercentile("query_p50_ms", all.queryLat, 0.50)
	b.rep.setN("query_p99_ms", median(p99s), len(all.queryLat))
	fmt.Fprintf(os.Stderr, "# serve-ingest: query p99 of each round (ms): %.1f\n", p99s)
	b.rep.setN("recall_at_10", mean(all.recalls), len(all.recalls))
	b.rep.set("heap_mb", liveHeapMB(0))
	b.indexCounts(sv.ix, wd)
	if err := sv.stop(); err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	b.reopen(sv, wd, sc.Preload+tr.acked, tr.lastCheckpoint)
	b.rep.setN("setup_s", median(setupSecs), len(setupSecs))
	b.checkRecall("serve-ingest", all.recalls, recallFloorFloat)
	b.rep.setPercentile("ingest.insert_p50_ms", all.insertLat, 0.50)
	b.rep.setPercentile("ingest.insert_p99_ms", all.insertLat, 0.99)
	b.rep.set("bench.insert_samples", float64(len(all.insertLat)))
	b.rep.setPercentile("bench.late_ms_p99", all.late, 0.99)
	b.rep.set("wal.fsyncs", float64(fsyncs))
	b.rep.setN("wal.checkpoint_ms", mean(all.checkpointMs), len(all.checkpointMs))
	b.rep.set("persist.snapshot_mb", float64(all.snapshotBytes)/(1<<20))
	// Bytes written per byte acknowledged: the WAL records of the timed
	// phases plus the snapshots their checkpoints wrote. No segment files:
	// the daemon runs without spilling.
	if acked > 0 {
		b.rep.set("ingest.write_amp", float64(logged+all.snapshotBytes)/float64(acked*int64(sc.Dim)*4))
	}
	b.rep.set("server.shed", shed)
	return nil
}

// trafficResult is what a round of serve-ingest observed.
type trafficResult struct {
	span           float64   // seconds from the first search due to the last answered
	queryLat       []float64 // ms from due to answered
	recalls        []float64 // every answer
	insertLat      []float64 // ms from due to acknowledged
	late           []float64 // generator lateness, reader and writer
	checkpointMs   []float64 // program-reported checkpoint durations
	snapshotBytes  int64
	acked          int
	lastCheckpoint uint64 // WAL position of the last checkpoint
}

// add pools another round's samples and totals into res.
func (res *trafficResult) add(o trafficResult) {
	res.span += o.span
	res.queryLat = append(res.queryLat, o.queryLat...)
	res.recalls = append(res.recalls, o.recalls...)
	res.insertLat = append(res.insertLat, o.insertLat...)
	res.late = append(res.late, o.late...)
	res.checkpointMs = append(res.checkpointMs, o.checkpointMs...)
	res.snapshotBytes += o.snapshotBytes
}

// traffic runs the reader and the writer side by side for dur, each on
// its own connection and open-loop schedule.
func (b *bench) traffic(sv *served, wd workloadData, dur time.Duration, batches int) trafficResult {
	start := time.Now().Add(10 * time.Millisecond)
	res := trafficResult{lastCheckpoint: sv.preloadSeq}
	var wg sync.WaitGroup
	var readLate, writeLate []float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		readLate = b.reader(sv, wd, start, dur, &res)
	}()
	go func() {
		defer wg.Done()
		writeLate = b.writer(sv, wd, start, batches, &res)
	}()
	wg.Wait()
	res.late = append(readLate, writeLate...)
	return res
}

// reader posts the query set round-robin at ReadRate and checks every
// answer. It writes only res's query fields.
func (b *bench) reader(sv *served, wd workloadData, start time.Time, dur time.Duration, res *trafficResult) []float64 {
	client := oneConnection()
	defer client.CloseIdleConnections()
	n := int(b.sc.ReadRate * dur.Seconds())
	var last time.Time
	late := openLoop(start, n, time.Duration(float64(time.Second)/b.sc.ReadRate), func(i int, due time.Time) {
		q := wd.queries[i%len(wd.queries)]
		req := server.SearchRequest{Vector: q.Vector, K: q.K, Start: q.Start, End: q.End}
		var resp server.SearchResponse
		sent := time.Now()
		err := post(client, sv.url+"/search", req, &resp)
		end := time.Now()
		last = end
		res.queryLat = append(res.queryLat, ms(end.Sub(due)))
		got := make([]tknn.Result, len(resp.Results))
		for j, r := range resp.Results {
			got[j] = tknn.Result{ID: r.ID, Time: r.Time, Dist: r.Dist}
		}
		if err == nil && resp.Partial {
			err = errPartial
		}
		if err == nil {
			err = checkAnswer(got, q, wd.d.Times)
		}
		if err == nil {
			err = checkDistances(got, q, wd.d)
		}
		res.recalls = append(res.recalls, recall(got, wd.truth[i%len(wd.queries)]))
		if err != nil {
			err = fmt.Errorf("search %d: %w", i, err)
		}
		b.rep.op(err)
		if b.tr != nil {
			rtt := ms(end.Sub(sent))
			if b.tracing(i, i/len(wd.queries)) {
				st := resp.Stages
				b.tr.query("server.search", sent, end, stages{
					Select: seconds(st.SelectSeconds), Search: seconds(st.SearchSeconds), Merge: seconds(st.MergeSeconds),
					Rerank: seconds(st.RerankSeconds), Fetch: seconds(st.FetchSeconds),
				})
				b.traced = append(b.traced, rtt)
			} else {
				b.untraced = append(b.untraced, rtt)
			}
		}
	})
	// The span gives the achieved rate. The schedule fixes it at
	// ReadRate unless the server falls behind by more than a quarter of
	// the round, so it flags saturation only; query_p50_ms and
	// query_p99_ms carry the signal here.
	if n > 0 {
		res.span = last.Sub(start).Seconds()
	}
	return late
}

// writer posts batches of batchSize new vectors at WriteRate and, after
// every CheckpointEvery acknowledged vectors, asks for a checkpoint on
// the same connection. It writes only res's ingest fields.
func (b *bench) writer(sv *served, wd workloadData, start time.Time, batches int, res *trafficResult) []float64 {
	sc := b.sc
	client := oneConnection()
	defer client.CloseIdleConnections()
	return openLoop(start, batches, time.Duration(float64(time.Second)/sc.WriteRate), func(j int, due time.Time) {
		lo := sc.Preload + res.acked
		req := server.AddRequest{Batch: make([]server.AddEntry, batchSize)}
		for i := range req.Batch {
			req.Batch[i] = server.AddEntry{Vector: wd.d.Train.At(lo + i), Time: wd.d.Times[lo+i]}
		}
		var resp server.AddResponse
		sent := time.Now()
		err := post(client, sv.url+"/vectors", req, &resp)
		end := time.Now()
		res.insertLat = append(res.insertLat, ms(end.Sub(due)))
		if err == nil && (resp.Count != batchSize || len(resp.IDs) != batchSize || resp.IDs[0] != lo) {
			err = fmt.Errorf("acknowledged %d vectors (ids %v), want %d from id %d", resp.Count, resp.IDs, batchSize, lo)
		}
		if err != nil {
			b.rep.op(fmt.Errorf("batch %d: %w", j, err))
			return
		}
		b.rep.op(nil)
		res.acked += batchSize
		if b.tr != nil && (lo+batchSize)/sc.Leaf > lo/sc.Leaf {
			b.tr.record(-1, "core.seal", sent, end)
		}
		if res.acked%sc.CheckpointEvery == 0 {
			b.checkpoint(client, sv.url, res)
		}
	})
}

// checkpoint posts /admin/checkpoint and records the snapshot it wrote.
func (b *bench) checkpoint(client *http.Client, url string, res *trafficResult) {
	var info wal.CheckpointInfo
	sent := time.Now()
	err := post(client, url+"/admin/checkpoint", struct{}{}, &info)
	end := time.Now()
	b.rep.op(err)
	if err != nil {
		return
	}
	res.snapshotBytes += info.Bytes
	res.checkpointMs = append(res.checkpointMs, ms(info.Duration))
	res.lastCheckpoint = info.Seq
	if b.tr != nil {
		root := b.tr.record(-1, "server.checkpoint", sent, end)
		b.tr.record(root, "wal.checkpoint", end.Add(-info.Duration), end)
	}
}

// reopen reopens the data directory sc.Reopens times, timing each open
// (snapshot load plus replay of the WAL tail after the last checkpoint),
// and checks that every acknowledged vector came back.
func (b *bench) reopen(sv *served, wd workloadData, acked int, lastCheckpoint uint64) {
	opts := b.sc.daemonOptions()
	var secs []float64
	for r := 0; r < b.sc.Reopens; r++ {
		t0 := time.Now()
		m, err := wal.Open(walConfig(sv.dir), restoreFunc(opts))
		t1 := time.Now()
		secs = append(secs, t1.Sub(t0).Seconds())
		if err != nil {
			b.rep.op(fmt.Errorf("reopen %d: %w", r, err))
			continue
		}
		if b.tr != nil {
			b.tr.record(-1, "wal.open", t0, t1)
		}
		ix := m.Index().(*tknn.MBI)
		b.rep.op(checkRecovered(ix, wd, acked))
		if want := uint64(acked) - lastCheckpoint; m.Stats().Replayed != want {
			b.rep.fail("reopen %d replayed %d records, want the %d after the last checkpoint", r, m.Stats().Replayed, want)
		}
		b.rep.set("wal.replayed", float64(m.Stats().Replayed))
		b.probe(ix, wd, acked)
		if err := m.Close(); err != nil {
			b.rep.op(fmt.Errorf("closing reopen %d: %w", r, err))
		}
	}
	b.rep.setN("ingest.recovery_s", median(secs), len(secs))
}

// checkRecovered compares the reopened index's length and every stored
// row, bit for bit, with the acknowledged vectors.
func checkRecovered(ix *tknn.MBI, wd workloadData, acked int) error {
	if ix.Len() != acked {
		return fmt.Errorf("reopened index holds %d vectors, %d were acknowledged", ix.Len(), acked)
	}
	store, times := ix.Internal().Store(), ix.Internal().Times()
	for i := 0; i < acked; i++ {
		want, got := wd.d.Train.At(i), store.At(i)
		if times[i] != wd.d.Times[i] {
			return fmt.Errorf("reopened vector %d has time %d, want %d", i, times[i], wd.d.Times[i])
		}
		for j := range want {
			if math.Float32bits(want[j]) != math.Float32bits(got[j]) {
				return fmt.Errorf("reopened vector %d differs from the acknowledged one at coordinate %d", i, j)
			}
		}
	}
	return nil
}

// probe searches the reopened index for acknowledged vectors, each with
// a window holding only that vector; the answer must be the vector
// itself.
func (b *bench) probe(ix *tknn.MBI, wd workloadData, acked int) {
	for p := 0; p < b.sc.RecoveryProbes; p++ {
		id := p * acked / b.sc.RecoveryProbes
		t := wd.d.Times[id]
		res, err := ix.Search(tknn.Query{Vector: wd.d.Train.At(id), K: 1, Start: t, End: t + 1})
		if err == nil && (len(res) != 1 || res[0].ID != id || res[0].Dist > 1e-5) {
			err = fmt.Errorf("got %v", res)
		}
		if err != nil {
			err = fmt.Errorf("exact-match probe for vector %d after reopen: %w", id, err)
		}
		b.rep.op(err)
	}
}

// oneConnection returns a client that keeps a single connection open.
func oneConnection() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// post sends v as JSON and decodes a 200 response into out; any other
// status, including a 429 refusal, is an error.
func post(client *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// shedCount sums the server's tknn_shed_total counters.
func shedCount(url string) (float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "tknn_shed_total{") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		total += v
	}
	return total, nil
}

// openLoop runs n operations, operation i due at start + i·interval. A
// generator goroutine releases each one at its due time and records how
// late it did so; the calling goroutine, which owns one connection, runs
// them in order. An operation that finds the connection busy waits, and
// its latency, taken from when it was due, includes that wait.
func openLoop(start time.Time, n int, interval time.Duration, do func(i int, due time.Time)) []float64 {
	late := make([]float64, n)
	ready := make(chan int, n) // one slot per operation: the generator never blocks
	go func() {
		defer close(ready)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			late[i] = ms(time.Since(due))
			ready <- i
		}
	}()
	for i := range ready {
		do(i, start.Add(time.Duration(i)*interval))
	}
	return late
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
