package main

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/load"
)

const (
	// setupBoots is how many times a run boots gsqld; setup_s is the
	// median, and the last boot serves the workload.
	setupBoots = 7
	// opTimeout is the client deadline of one request. A failed,
	// refused or timed-out request enters the latency samples at this
	// value: beyond any latency limit the benchmark reports.
	opTimeout = 10 * time.Second
	// warmBatch is the read batch ic-hot's warm-up repeats until it sees
	// no new count-cache miss.
	warmBatch = 200
)

// sample is one measured request.
type sample struct {
	class  int
	query  string
	ms     float64
	failed bool
}

// phaseResult holds one load phase's samples.
type phaseResult struct {
	samples []sample
	elapsed time.Duration
	lagMs   []float64 // open phase: how late the generator sent each request
	acked   []uint64  // op indices of acknowledged writes
}

func (p *phaseResult) merge(o *phaseResult) {
	p.samples = append(p.samples, o.samples...)
	p.lagMs = append(p.lagMs, o.lagMs...)
	p.acked = append(p.acked, o.acked...)
}

// send sends one op through internal/load's client.
func send(cl *load.Client, o op) error {
	switch o.class {
	case classRead:
		return cl.RunQuery(o.name, o.params)
	case classWrite:
		return cl.Mutate(o.mut)
	default:
		return cl.Checkpoint()
	}
}

// runner runs the measured phases against one gsqld. It uses
// internal/load's client and op streams but its own loops: load.Run
// keeps no latency for failed ops, no per-query samples and no record of
// how late its open-loop pacer ran.
type runner struct {
	st *stream
	cl *load.Client
}

func (d *runner) do(i uint64) (op, error) {
	o := d.st.at(i)
	return o, send(d.cl, o)
}

func (d *runner) record(pr *phaseResult, i uint64, o op, err error, lat time.Duration) {
	s := sample{class: o.class, query: o.query, ms: durMs(lat)}
	if err != nil {
		s.failed, s.ms = true, durMs(opTimeout)
	} else if o.class == classWrite {
		pr.acked = append(pr.acked, i)
	}
	pr.samples = append(pr.samples, s)
}

// runClosed runs clients workers back to back over ops base+next,
// base+next+1, … until dur has passed, advancing next.
func (d *runner) runClosed(clients int, base uint64, next *atomic.Uint64, dur time.Duration) *phaseResult {
	parts := make([]*phaseResult, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := range parts {
		pr := &phaseResult{}
		parts[w] = pr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := base + next.Add(1) - 1
				t0 := time.Now()
				o, err := d.do(i)
				d.record(pr, i, o, err, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	out := &phaseResult{elapsed: time.Since(start)}
	for _, pr := range parts {
		out.merge(pr)
	}
	return out
}

// runOpen offers n ops from base, base+1, … at rate per second, with at
// most clients requests in flight. Each latency runs from the op's
// intended send time, so queueing behind a stall counts.
func (d *runner) runOpen(clients int, base uint64, n int, rate float64) *phaseResult {
	type job struct {
		i        uint64
		intended time.Time
	}
	jobs := make(chan job, n) // holds the whole phase: the pacer never blocks
	interval := time.Duration(float64(time.Second) / rate)
	lag := make([]float64, 0, n)
	start := time.Now()
	go func() {
		defer close(jobs)
		for k := 0; k < n; k++ {
			intended := start.Add(time.Duration(k) * interval)
			time.Sleep(time.Until(intended))
			lag = append(lag, durMs(time.Since(intended)))
			jobs <- job{base + uint64(k), intended}
		}
	}()
	parts := make([]*phaseResult, clients)
	var wg sync.WaitGroup
	for w := range parts {
		pr := &phaseResult{}
		parts[w] = pr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o, err := d.do(j.i)
				d.record(pr, j.i, o, err, time.Since(j.intended))
			}
		}()
	}
	wg.Wait() // the pacer closed jobs, so its lag slice is complete
	out := &phaseResult{elapsed: time.Since(start), lagMs: lag}
	for _, pr := range parts {
		out.merge(pr)
	}
	return out
}

// sliceLen is the period of ic-*'s phase alternation. Host speed drifts
// over tens of seconds; alternating closed and open slices spreads both
// phases over the whole run, so each samples the same conditions.
const sliceLen = 2500 * time.Millisecond

// slice is one closed phase and the open phase that follows it, or,
// in a workload without an open phase, one closed phase.
type slice struct {
	closed, open *phaseResult
}

// measured returns the phase latencies are taken from: the open phase,
// or the closed one when there is none.
func (sl slice) measured() *phaseResult {
	if sl.open != nil {
		return sl.open
	}
	return sl.closed
}

// closedSliceLen is the slice length of a workload without an open
// phase: appb-agg's reads take about half a second, so a slice holds
// about ten.
const closedSliceLen = 5 * time.Second

// runPhases runs the workload's closed and open phases for total,
// alternating slices of closedShare closed loop and the rest open loop.
// A workload without an open phase runs closed slices back to back.
func (d *runner) runPhases(s *spec, total time.Duration) []slice {
	var next atomic.Uint64
	var out []slice
	if s.openRate == 0 {
		for k := 0; k < max(1, int(total/closedSliceLen)); k++ {
			out = append(out, slice{closed: d.runClosed(s.clients, baseClosed, &next, closedSliceLen)})
		}
		return out
	}
	closedDur := time.Duration(float64(sliceLen) * closedShare)
	perSlice := int(s.openRate * (sliceLen - closedDur).Seconds())
	for k := 0; k < max(1, int(total/sliceLen)); k++ {
		c := d.runClosed(s.clients, baseClosed, &next, closedDur)
		o := d.runOpen(s.clients, baseOpen+uint64(k*perSlice), perSlice, s.openRate)
		out = append(out, slice{closed: c, open: o})
	}
	return out
}

// warmUp brings the server to the state the measured phases assume and
// returns how many reads it took. ic-hot reads every person once, then
// repeats batches of stream reads until a batch adds no count-cache
// miss: the cache then holds the whole working set. The other workloads
// run one short batch. Reads go out on the workload's client count.
func warmUp(s *spec, st *stream, url string) (int, error) {
	hc := &http.Client{Timeout: opTimeout}
	reads := 0
	run := func(ops []op) (misses int64, err error) {
		reads += len(ops)
		var next, sum atomic.Int64
		errs := make([]error, s.clients)
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := next.Add(1) - 1; k < int64(len(ops)); k = next.Add(1) - 1 {
					r, err := runQuery(hc, url, ops[k].name, ops[k].params)
					if err != nil {
						errs[w] = fmt.Errorf("warm-up: %w", err)
						return
					}
					sum.Add(r.Stats.CountCacheMisses)
				}
			}()
		}
		wg.Wait()
		return sum.Load(), errors.Join(errs...)
	}
	if s.isIC() && s.mix[classWrite] == 0 {
		if _, err := run(personSweep(s, st)); err != nil {
			return reads, err
		}
	}
	for b := uint64(0); ; b++ {
		misses, err := run(warmBatchOps(s, st, b))
		if err != nil || misses == 0 || s.mix[classWrite] > 0 || !s.isIC() || b >= 20 {
			return reads, err
		}
	}
}

// warmBase starts the index range warm-up reads come from; no measured
// phase uses it.
const warmBase = 3_000_000

// personSweep returns one stream read per person, with that person as
// the start vertex.
func personSweep(s *spec, st *stream) []op {
	persons := ldbc.Config{SF: s.sf}.Persons()
	ops := make([]op, persons)
	for p := range ops {
		ops[p] = st.at(warmBase + uint64(p))
		ops[p].params["p"] = fmt.Sprintf("person%d", p)
	}
	return ops
}

// warmBatchOps returns warm-up batch b: the reads among warmBatch stream
// ops (appb-agg: one Qacc/Qgs pair).
func warmBatchOps(s *spec, st *stream, b uint64) []op {
	if !s.isIC() {
		return []op{st.at(warmBase + 2*b), st.at(warmBase + 2*b + 1)}
	}
	var ops []op
	for k := uint64(0); k < warmBatch; k++ {
		if o := st.at(warmBase + 10_000 + b*warmBatch + k); o.class == classRead {
			ops = append(ops, o)
		}
	}
	return ops
}

// e2eRun is one end-to-end run's raw outcome.
type e2eRun struct {
	setupS     []float64
	rssMB      float64
	warmReads  int
	slices     []slice
	verifyNote string
}

// runE2E boots gsqld on the seeded graph, drives the workload's phases
// and checks the answers.
func runE2E(s *spec, seed int64, seconds int, gsqldBin, work string) (*e2eRun, error) {
	csvDir := filepath.Join(work, "csv")
	if err := ldbc.Generate(ldbc.Config{SF: s.sf, Seed: seed}).DumpCSV(csvDir); err != nil {
		return nil, fmt.Errorf("writing graph: %w", err)
	}
	out := &e2eRun{}
	var srv *proc
	for b := 0; b < setupBoots; b++ {
		p, d, err := startGsqld(gsqldBin, csvDir, filepath.Join(work, fmt.Sprintf("data%d", b)), s.sources())
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, d.Seconds())
		if b < setupBoots-1 {
			p.stop()
		} else {
			srv = p
		}
	}
	defer srv.stop()

	st, err := newStream(s, seed)
	if err != nil {
		return nil, err
	}
	if out.warmReads, err = warmUp(s, st, srv.url); err != nil {
		return nil, err
	}
	cl, err := load.NewClient([]string{srv.url}, opTimeout)
	if err != nil {
		return nil, err
	}
	d := &runner{st: st, cl: cl}
	out.slices = d.runPhases(s, time.Duration(seconds)*time.Second)
	if out.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	var acked []uint64
	for _, sl := range out.slices {
		acked = append(acked, sl.closed.acked...)
		if sl.open != nil {
			acked = append(acked, sl.open.acked...)
		}
	}
	sort.Slice(acked, func(a, b int) bool { return acked[a] < acked[b] })
	out.verifyNote, err = verify(s, st, csvDir, srv.url, acked)
	return out, err
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
