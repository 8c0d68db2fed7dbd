package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gsqlgo/internal/core"
	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/load"
	"gsqlgo/internal/match"
	"gsqlgo/internal/server"
	"gsqlgo/internal/storage"
	"gsqlgo/internal/value"
)

// The traced run replays a workload's op stream in process, serially,
// three times over fresh copies of the seeded graph:
//
//   - pass A sends the ops over loopback HTTP to an in-process server,
//     recording a client span around each request and, from a wrapper
//     around Server.ServeHTTP, a handler span inside it;
//   - pass B makes the calls directly: Graph.Freeze after a mutation,
//     Engine.RunOn on a pinned snapshot, match.CountASP for the op's
//     start person, graph mutations logged to the WAL, Store.WaitDurable
//     and Store.Checkpoint, each inside a span;
//   - pass C repeats pass B without spans or counters. The wall-time
//     difference between B and C is the tracing overhead.
//
// A single serial client makes every count repeat exactly from run to
// run with one seed.

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     uint64 `json:"op"`     // index of the op in the workload's stream
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory. Pass A's handler spans are recorded on
// the server's goroutines, hence the lock. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) start(pass, name string, parent int, opIdx uint64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: opIdx, Pass: pass, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfMs returns each span's duration minus the time its children
// cover, keyed by span ID. Children of one span never overlap here:
// every pass is serial.
func (t *tracer) selfMs() map[int]float64 {
	self := make(map[int]float64, len(t.spans))
	for i := range t.spans {
		self[t.spans[i].ID] += t.spans[i].ms()
		if p := t.spans[i].Parent; p != 0 {
			self[p] -= t.spans[i].ms()
		}
	}
	return self
}

// fixture is one fresh copy of the workload's system: the seeded graph
// in a store, and an engine with the workload's queries installed.
type fixture struct {
	st  *storage.Store
	eng *core.Engine
}

// close releases the store. Its files are scratch, removed with the
// run's directory, so a failed final flush changes nothing measured.
func (f *fixture) close() { _ = f.st.Close() }

// setupTimes holds the set-up costs of the first fixture.
type setupTimes struct {
	generateMs, seedMs, installMs float64
}

// qscanQuery is Qacc's FROM and WHERE with no ACCUM: run on the same
// window, it prices the binding table alone, so Qacc and Qgs minus it is
// their accumulation cost.
const qscanQuery = `
CREATE QUERY Qscan (datetime lo, datetime hi) {
  S = SELECT p
      FROM Person:p -(Likes>)- Comment:m -(CommentHasCreator>)- Person:author,
           Person:p -(PersonLocatedIn>)- City:city
      WHERE m.creationDate >= lo AND m.creationDate <= hi;
}
`

func newFixture(s *spec, seed int64, dir string) (*fixture, setupTimes, error) {
	var ts setupTimes
	t0 := time.Now()
	g := ldbc.Generate(ldbc.Config{SF: s.sf, Seed: seed})
	ts.generateMs = durMs(time.Since(t0))
	t0 = time.Now()
	// The flush policy is gsqld's default: no fsync, deferred waits.
	st, err := storage.Open(dir, storage.Options{DeferSync: true, Init: func() (*graph.Graph, error) { return g, nil }})
	if err != nil {
		return nil, ts, err
	}
	ts.seedMs = durMs(time.Since(t0))
	eng := core.New(st.Graph(), core.Options{})
	t0 = time.Now()
	for name, src := range s.sources() {
		if err := eng.Install(src); err != nil {
			_ = st.Close() // scratch store
			return nil, ts, fmt.Errorf("installing %s: %w", name, err)
		}
	}
	ts.installMs = durMs(time.Since(t0))
	if !s.isIC() {
		if err := eng.Install(qscanQuery); err != nil {
			_ = st.Close() // scratch store
			return nil, ts, fmt.Errorf("installing Qscan: %w", err)
		}
	}
	return &fixture{st: st, eng: eng}, ts, nil
}

// warmInProcess runs the end-to-end run's warm-up reads directly on the
// engine, so each pass starts from the state the end-to-end run measures.
func (f *fixture) warmInProcess(s *spec, st *stream) error {
	ops := warmBatchOps(s, st, 0)
	if s.isIC() && s.mix[classWrite] == 0 {
		ops = append(personSweep(s, st), ops...)
	}
	for _, o := range ops {
		snap := f.eng.Graph().Snapshot()
		args, err := toArgs(f.eng, snap, o)
		if err != nil {
			return err
		}
		if _, err := f.eng.RunOn(context.Background(), snap, o.name, args); err != nil {
			return fmt.Errorf("warm-up %s: %w", o.name, err)
		}
	}
	return nil
}

// toArgs converts an op's JSON-style parameters to engine values by the
// query's declared parameter types, as gsqld decodes a request body.
func toArgs(eng *core.Engine, snap *graph.Graph, o op) (map[string]value.Value, error) {
	specs, err := eng.QueryParams(o.name)
	if err != nil {
		return nil, err
	}
	args := make(map[string]value.Value, len(specs))
	for _, p := range specs {
		raw, ok := o.params[p.Name]
		if !ok {
			continue
		}
		switch p.Type.Kind {
		case value.KindInt:
			args[p.Name] = value.NewInt(toInt64(raw))
		case value.KindDatetime:
			args[p.Name] = value.NewDatetime(toInt64(raw))
		case value.KindString:
			args[p.Name] = value.NewString(fmt.Sprint(raw))
		case value.KindVertex:
			v, ok := snap.VertexByKey(p.Type.VertexType, fmt.Sprint(raw))
			if !ok {
				return nil, fmt.Errorf("%s: no %s %v", o.name, p.Type.VertexType, raw)
			}
			args[p.Name] = value.NewVertex(int64(v))
		default:
			return nil, fmt.Errorf("%s: parameter %s has unsupported kind %v", o.name, p.Name, p.Type.Kind)
		}
	}
	return args, nil
}

func toInt64(x any) int64 {
	switch v := x.(type) {
	case int:
		return int64(v)
	case int64:
		return v
	}
	panic(fmt.Sprintf("perfbench: parameter %v (%T) is not an integer", x, x)) // op streams only hold int and int64
}

// knowsDFA compiles the IC family's KNOWS hop, the DARPE its counted
// expansion runs SDMC on.
func knowsDFA() (*darpe.DFA, error) {
	m := regexp.MustCompile(`-\((Knows\*1\.\.\d+)\)-`).FindStringSubmatch(ldbc.IC3(hops))
	if m == nil {
		return nil, fmt.Errorf("no Knows hop in ic3")
	}
	return darpe.Compile(m[1])
}

// passAStats is what pass A measures beyond its spans.
type passAStats struct {
	lagMs     []float64
	respBytes []float64 // per read
	refused   int
}

// handlerWrap times Server.ServeHTTP as a child of the client span in
// flight (pass A has one client, so there is at most one), and counts
// response bytes and refusals.
type handlerWrap struct {
	srv      *server.Server
	tr       *tracer
	inflight sync.WaitGroup
	mu       sync.Mutex
	client   int    // the open client span
	op       uint64 // its op index
	read     bool   // whether that op is a read
	stats    *passAStats
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.bytes += n
	return n, err
}

func (h *handlerWrap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.inflight.Add(1)
	defer h.inflight.Done()
	h.mu.Lock()
	parent, opIdx, read := h.client, h.op, h.read
	h.mu.Unlock()
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	id := h.tr.start("A", "server.handler", parent, opIdx)
	h.srv.ServeHTTP(cw, r)
	h.tr.end(id)
	h.mu.Lock()
	defer h.mu.Unlock()
	if cw.status == http.StatusTooManyRequests || cw.status == http.StatusServiceUnavailable {
		h.stats.refused++
	}
	if read {
		h.stats.respBytes = append(h.stats.respBytes, float64(cw.bytes))
	}
}

// setClient names the client span the next handler span belongs to.
func (h *handlerWrap) setClient(id int, opIdx uint64, read bool) {
	h.mu.Lock()
	h.client, h.op, h.read = id, opIdx, read
	h.mu.Unlock()
}

// passA replays ops through an in-process server on a loopback listener.
// ic-* ops are paced at the workload's open rate; appb-agg runs them
// back to back.
func passA(s *spec, st *stream, f *fixture, tr *tracer, ops []uint64) (*passAStats, error) {
	stats := &passAStats{}
	hw := &handlerWrap{srv: server.New(server.Config{Engine: f.eng, Store: f.st}), tr: tr, stats: stats}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: hw}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	defer func() {
		hs.Close()
		<-served
		hw.inflight.Wait() // the last handler span may still be closing
	}()
	cl, err := load.NewClient([]string{"http://" + l.Addr().String()}, opTimeout)
	if err != nil {
		return nil, err
	}

	var interval time.Duration
	if s.openRate > 0 {
		interval = time.Duration(float64(time.Second) / s.openRate)
	}
	start := time.Now()
	free := start
	for k, i := range ops {
		if interval > 0 {
			intended := start.Add(time.Duration(k) * interval)
			time.Sleep(time.Until(intended))
			// Lateness of the generator alone: from when the op was due
			// or the client became free, whichever is later.
			stats.lagMs = append(stats.lagMs, durMs(time.Since(later(intended, free))))
		}
		o := st.at(i)
		id := tr.start("A", "load.client."+classNames[o.class], 0, i)
		hw.setClient(id, i, o.class == classRead)
		err = send(cl, o)
		tr.end(id)
		free = time.Now()
		if err != nil {
			return nil, fmt.Errorf("pass A op %d: %w", i, err)
		}
	}
	return stats, nil
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// runCounts sums the engine's per-run counters over pass B's reads.
type runCounts struct {
	runs                             int
	allocs, allocBytes               uint64
	bindingRows, resultRows          int64
	interpreted, fused               int64
	cacheHits, cacheMisses, sdmc     int64
	writes, userBytes, snapshotBytes int64
}

// passB replays ops by direct calls into each layer. With tr nil it is
// pass C: the same calls, untimed, without counters.
func passB(s *spec, st *stream, f *fixture, tr *tracer, ops []uint64, dfa *darpe.DFA) (*runCounts, error) {
	rc := &runCounts{}
	ctx := context.Background()
	pass := "B"
	if tr == nil {
		pass = "C"
	}
	head := f.st.Graph()
	frozenEpoch := ^uint64(0)
	var ms0, ms1 runtime.MemStats
	for _, i := range ops {
		o := st.at(i)
		switch o.class {
		case classWrite:
			id := tr.start(pass, "storage.write", 0, i)
			err := ldbc.Apply(head, o.mut)
			if err == nil {
				err = f.st.WaitDurable(f.st.Position())
			}
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("write %d: %w", i, err)
			}
			rc.writes++
			rc.userBytes += int64(len(mustJSON(o.mut)))
			continue
		case classCheckpoint:
			id := tr.start(pass, "storage.checkpoint", 0, i)
			err := f.st.Checkpoint()
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("checkpoint %d: %w", i, err)
			}
			if tr != nil {
				n, err := newestSnapshotBytes(f.st.Dir())
				if err != nil {
					return nil, err
				}
				rc.snapshotBytes += n
			}
			continue
		}
		snap := head.Snapshot()
		if e := snap.Epoch(); e != frozenEpoch && frozenEpoch != ^uint64(0) {
			id := tr.start(pass, "graph.freeze", 0, i)
			snap.Freeze()
			tr.end(id)
		}
		frozenEpoch = snap.Epoch()
		args, err := toArgs(f.eng, snap, o)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		id := tr.start(pass, "core.run."+o.query, 0, i)
		res, err := f.eng.RunOn(ctx, snap, o.name, args)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("run %s (op %d): %w", o.name, i, err)
		}
		if tr == nil {
			continue
		}
		runtime.ReadMemStats(&ms1)
		rc.runs++
		rc.allocs += ms1.Mallocs - ms0.Mallocs
		rc.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		rc.bindingRows += res.Stats.BindingRows
		rc.resultRows += resultRows(res)
		rc.interpreted += res.Stats.AccumInterpretedStmts
		rc.fused += res.Stats.FusionBlocksFused
		rc.cacheHits += res.Stats.CountCacheHits
		rc.cacheMisses += res.Stats.CountCacheMisses
		rc.sdmc += res.Stats.SDMCRuns
		if dfa != nil {
			src := args["p"]
			id := tr.start(pass, "match.count_asp", 0, i)
			match.CountASP(snap, dfa, graph.VID(src.VertexID()))
			tr.end(id)
		}
		if !s.isIC() && o.query == "qacc" {
			// Price the same window's binding table without accumulation.
			id := tr.start(pass, "core.run.qscan", 0, i)
			_, err := f.eng.RunOn(ctx, snap, "Qscan", args)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("run Qscan (op %d): %w", i, err)
			}
		}
	}
	return rc, nil
}

// resultRows counts the rows a run returns: the RETURN table when there
// is one (it is also among the INTO tables), else every PRINT table.
func resultRows(res *core.Result) int64 {
	if res.Returned != nil {
		return int64(len(res.Returned.Rows))
	}
	var n int64
	for _, t := range res.Printed {
		n += int64(len(t.Rows))
	}
	return n
}

func newestSnapshotBytes(dir string) (int64, error) {
	snaps, err := filepath.Glob(filepath.Join(dir, "*.gsnap"))
	if err != nil || len(snaps) == 0 {
		return 0, fmt.Errorf("no snapshot in %s", dir)
	}
	var newest string
	for _, p := range snaps {
		if p > newest { // zero-padded sequence numbers sort by name
			newest = p
		}
	}
	fi, err := os.Stat(newest)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// tracedOps picks the replayed ops: the start of the open-phase stream
// (ic-*) or of the closed loop (appb-agg), sized so the three passes
// together take about --seconds.
func tracedOps(s *spec, seconds int) []uint64 {
	n, base := int(s.openRate*float64(seconds)/3), uint64(baseOpen)
	if s.openRate == 0 {
		n, base = max(4, seconds/6*2), baseClosed
	}
	ops := make([]uint64, n)
	for k := range ops {
		ops[k] = base + uint64(k)
	}
	return ops
}

// tracedRun runs the three passes in work and reports the per-layer
// metrics; the spans file goes to spansDir.
func tracedRun(s *spec, seed int64, seconds int, work, spansDir string) (*result, error) {
	st, err := newStream(s, seed)
	if err != nil {
		return nil, err
	}
	var dfa *darpe.DFA
	if s.isIC() {
		if dfa, err = knowsDFA(); err != nil {
			return nil, err
		}
	}
	ops := tracedOps(s, seconds)
	tr := &tracer{epoch: time.Now()}

	fresh := func(pass string) (*fixture, setupTimes, error) {
		f, ts, err := newFixture(s, seed, filepath.Join(work, pass))
		if err != nil {
			return nil, ts, err
		}
		if err := f.warmInProcess(s, st); err != nil {
			f.close()
			return nil, ts, err
		}
		return f, ts, nil
	}
	fa, setup, err := fresh("A")
	if err != nil {
		return nil, err
	}
	aStats, err := passA(s, st, fa, tr, ops)
	fa.close()
	if err != nil {
		return nil, err
	}
	fb, _, err := fresh("B")
	if err != nil {
		return nil, err
	}
	foldsBefore := fb.st.Graph().MVCCStats().Folds
	t0 := time.Now()
	rc, err := passB(s, st, fb, tr, ops, dfa)
	wallB := time.Since(t0)
	mvcc := fb.st.Graph().MVCCStats()
	mvcc.Folds -= foldsBefore
	walBytes := fb.st.Stats().WALBytes
	snapBytes, snapErr := newestSnapshotBytes(fb.st.Dir())
	fb.close()
	if err != nil {
		return nil, err
	}
	if snapErr != nil {
		return nil, snapErr
	}
	fc, _, err := fresh("C")
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	_, err = passB(s, st, fc, nil, ops, nil)
	wallC := time.Since(t0)
	fc.close()
	if err != nil {
		return nil, err
	}

	spansPath := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, seed))
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench %s seed=%d traced: %d ops per pass, %d spans in %s\n", s.name, seed, len(ops), len(tr.spans), spansPath)
	r := newReporter()
	reportLayers(r, s, tr, aStats, rc, setup, layerExtras{
		mvcc: mvcc, walBytes: walBytes, snapBytes: snapBytes,
		overheadPct: (wallB.Seconds() - wallC.Seconds()) / wallC.Seconds() * 100,
	})
	return &result{Correct: true, Attempted: 3 * len(ops), Metrics: r.metrics}, nil
}

type layerExtras struct {
	mvcc        graph.MVCCStats // at the end of pass B; Folds counts pass B's
	walBytes    uint64
	snapBytes   int64
	overheadPct float64
}

// reportLayers derives every per-layer metric from the spans and
// counters. A metric whose layer the workload does not reach reads 0.
func reportLayers(r *reporter, s *spec, tr *tracer, a *passAStats, rc *runCounts, setup setupTimes, x layerExtras) {
	byName := map[string][]float64{} // pass/name → durations in ms
	runByOp := map[uint64]float64{}  // op → pass B core.run ms of a read
	handlerByOp := map[uint64]float64{}
	clientByOp := map[uint64]*span{}
	var clientAll []float64
	for i := range tr.spans {
		sp := &tr.spans[i]
		byName[sp.Pass+"/"+sp.Name] = append(byName[sp.Pass+"/"+sp.Name], sp.ms())
		switch {
		case sp.Pass == "B" && strings.HasPrefix(sp.Name, "core.run.") && sp.Name != "core.run.qscan":
			runByOp[sp.Op] = sp.ms()
			byName["B/core.run"] = append(byName["B/core.run"], sp.ms())
		case sp.Pass == "A" && sp.Name == "server.handler":
			handlerByOp[sp.Op] = sp.ms()
		case sp.Pass == "A":
			clientByOp[sp.Op] = sp
			clientAll = append(clientAll, sp.ms())
		}
	}
	var readSelf, transport, readHandler, writeHandler []float64
	for opIdx, h := range handlerByOp {
		c := clientByOp[opIdx]
		transport = append(transport, c.ms()-h)
		switch c.Name {
		case "load.client.read":
			readHandler = append(readHandler, h)
			readSelf = append(readSelf, h-runByOp[opIdx])
		case "load.client.write":
			writeHandler = append(writeHandler, h)
		}
	}
	// Self time of every span name, for the report.
	self := tr.selfMs()
	selfBy := map[string][]float64{}
	for i := range tr.spans {
		sp := &tr.spans[i]
		selfBy[sp.Pass+"/"+sp.Name] = append(selfBy[sp.Pass+"/"+sp.Name], self[sp.ID])
	}
	names := make([]string, 0, len(selfBy))
	for k := range selfBy {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("  span self time (ms, p50):")
	for _, k := range names {
		fmt.Printf("    %-34s %10.4f n=%d\n", k, median(selfBy[k]), len(selfBy[k]))
	}

	r.metric("load.open_lag_ms_p99", quantile(a.lagMs, 0.99), "ms", len(a.lagMs))
	r.metric("load.client_ms_p50", median(clientAll), "ms", len(clientAll))

	r.metric("server.read_handler_ms_p50", median(readHandler), "ms", len(readHandler))
	r.metric("server.read_handler_ms_p99", quantile(readHandler, 0.99), "ms", len(readHandler))
	r.metric("server.read_self_ms_p50", median(readSelf), "ms", len(readSelf))
	r.metric("server.transport_ms_p50", median(transport), "ms", len(transport))
	r.metric("server.write_handler_ms_p50", median(writeHandler), "ms", len(writeHandler))
	r.metric("server.resp_bytes_per_read", mean(a.respBytes), "B", len(a.respBytes))
	r.metric("server.refused", float64(a.refused), "count", len(handlerByOp))

	runs := byName["B/core.run"]
	r.metric("core.run_ms_p50", median(runs), "ms", len(runs))
	r.metric("core.run_ms_p99", quantile(runs, 0.99), "ms", len(runs))
	for _, q := range []string{"ic3", "ic5", "ic6", "ic9", "ic11", "qacc", "qgs", "qscan"} {
		xs := byName["B/core.run."+q]
		r.metric("core.run_ms_p50."+q, median(xs), "ms", len(xs))
	}
	per := func(x float64) float64 { return x / float64(max(rc.runs, 1)) }
	r.metric("core.allocs_per_run", per(float64(rc.allocs)), "count", rc.runs)
	r.metric("core.alloc_bytes_per_run", per(float64(rc.allocBytes)), "B", rc.runs)
	r.metric("core.binding_rows_per_run", per(float64(rc.bindingRows)), "count", rc.runs)
	r.metric("core.result_rows_per_run", per(float64(rc.resultRows)), "count", rc.runs)
	r.metric("core.rows_per_result", float64(rc.bindingRows)/float64(max(rc.resultRows, 1)), "ratio", rc.runs)
	r.metric("core.interpreted_stmts", float64(rc.interpreted), "count", rc.runs)
	r.metric("core.fused_blocks_per_run", per(float64(rc.fused)), "count", rc.runs)
	r.metric("core.install_ms", setup.installMs, "ms", 1)

	lookups := rc.cacheHits + rc.cacheMisses
	r.metric("match.cache_hit_ratio", float64(rc.cacheHits)/float64(max(lookups, 1)), "ratio", int(lookups))
	r.metric("match.sdmc_runs_per_run", per(float64(rc.sdmc)), "count", rc.runs)
	asp := byName["B/match.count_asp"]
	r.metric("match.count_asp_us_p50", median(asp)*1000, "us", len(asp))

	freeze := byName["B/graph.freeze"]
	r.metric("graph.freeze_us_p50", median(freeze)*1000, "us", len(freeze))
	r.metric("graph.mvcc_delta_records", float64(x.mvcc.DeltaRecords), "count", 1)
	r.metric("graph.folds", float64(x.mvcc.Folds), "count", 1)

	writes := byName["B/storage.write"]
	r.metric("storage.write_us_p50", median(writes)*1000, "us", len(writes))
	r.metric("storage.write_us_p99", quantile(writes, 0.99)*1000, "us", len(writes))
	r.metric("storage.wal_bytes_per_write", float64(x.walBytes)/float64(max(rc.writes, 1)), "B", int(rc.writes))
	r.metric("storage.bytes_written_per_user_byte",
		float64(int64(x.walBytes)+rc.snapshotBytes)/float64(max(rc.userBytes, 1)), "ratio", int(rc.writes))
	cps := byName["B/storage.checkpoint"]
	r.metric("storage.checkpoint_ms_p50", median(cps), "ms", len(cps))
	r.metric("storage.snapshot_bytes", float64(x.snapBytes), "B", 1)
	r.metric("storage.seed_ms", setup.seedMs, "ms", 1)

	qacc, qgs, qscan := median(byName["B/core.run.qacc"]), median(byName["B/core.run.qgs"]), median(byName["B/core.run.qscan"])
	if s.isIC() {
		qacc, qgs, qscan = 0, 0, 0
	}
	r.metric("accum.qacc_self_ms_p50", qacc-qscan, "ms", len(byName["B/core.run.qacc"]))
	r.metric("accum.qgs_self_ms_p50", qgs-qscan, "ms", len(byName["B/core.run.qgs"]))
	r.metric("accum.qgs_over_qacc", qgs/qacc, "ratio", len(byName["B/core.run.qgs"]))

	r.metric("setup.generate_ms", setup.generateMs, "ms", 1)
	r.metric("trace.overhead_pct", x.overheadPct, "%", rc.runs)
}
