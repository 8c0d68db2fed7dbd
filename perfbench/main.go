// Command perfbench is the repository's benchmark. One invocation runs
// one workload (ic-hot, ic-churn or appb-agg) with one seed, and prints
// a report followed, on its last line, by a JSON result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 it boots gsqld processes on a graph generated from the
// seed, drives the workload over HTTP, checks the answers against an
// in-process engine, and reports the end-to-end metrics. With -trace 1
// it replays the same op streams in process, records spans around its
// own calls into each layer, writes them to a spans file and reports the
// per-layer metrics. perfbench/run.sh builds both binaries and runs it;
// README.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: ic-hot | ic-churn | appb-agg")
	seed := flag.Int64("seed", 1, "seed for the generated graph and the op streams")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end run against gsqld; 1: in-process traced run")
	gsqldBin := flag.String("gsqld", "", "gsqld binary (end-to-end runs)")
	workdir := flag.String("workdir", "", "scratch directory; this run uses a fresh subdirectory and removes it")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced, *gsqldBin, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int, gsqldBin, workdir string) error {
	s, ok := specs()[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (ic-hot | ic-churn | appb-agg)", name)
	}
	if seconds < 1 || workdir == "" || (traced == 0 && gsqldBin == "") {
		return errors.New("need -seconds >= 1, -workdir, and -gsqld for end-to-end runs")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var res *result
	if traced == 1 {
		res, err = tracedRun(s, seed, seconds, work, workdir)
	} else {
		res, err = endToEnd(s, seed, seconds, gsqldBin, work)
	}
	if errors.Is(err, errMismatch) {
		fmt.Println(err)
		res = &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
		printResult(res)
		return errors.New("answers differ from the in-process engine")
	}
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

func printResult(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Println(string(b))
}

// reporter prints the report lines and collects the result metrics.
type reporter struct {
	metrics map[string]metric
}

func newReporter() *reporter { return &reporter{metrics: map[string]metric{}} }

// line prints a value that is reported but is not a result metric.
func (r *reporter) line(name string, v float64, unit string, n int) {
	fmt.Printf("  %-34s %14.4f %-6s n=%d\n", name, v, unit, n)
}

// metric prints a value and records it in the result.
func (r *reporter) metric(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.line(name, v, unit, n)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// endToEnd runs the workload against gsqld and reports the end-to-end
// metrics. The gated read metrics are medians over the run's slices of
// each slice's value, so a burst of host contention that slows a few
// slices does not move them; the report-only lines pool every sample.
func endToEnd(s *spec, seed int64, seconds int, gsqldBin, work string) (*result, error) {
	e, err := runE2E(s, seed, seconds, gsqldBin, work)
	if err != nil {
		return nil, err
	}
	closed, open := &phaseResult{}, &phaseResult{}
	var opsPerS, p50s, tails []float64
	for _, sl := range e.slices {
		closed.merge(sl.closed)
		closed.elapsed += sl.closed.elapsed
		if sl.open != nil {
			open.merge(sl.open)
		}
		opsPerS = append(opsPerS, float64(okReads(sl.closed))/sl.closed.elapsed.Seconds())
		reads, byQuery := readLatencies(sl.measured())
		p50s = append(p50s, queryMedianMean(s, byQuery))
		tails = append(tails, quantile(reads, s.tailQ))
	}
	measured := closed
	if s.openRate > 0 {
		measured = open
	}
	res := &result{Correct: true, Attempted: len(closed.samples) + len(open.samples)}
	for _, pr := range []*phaseResult{closed, open} {
		for _, sm := range pr.samples {
			if sm.failed {
				res.Failed++
			}
		}
	}

	r := newReporter()
	fmt.Printf("perfbench %s seed=%d: %s\n", s.name, seed, e.verifyNote)
	fmt.Printf("  warm-up: %d reads (not timed)\n", e.warmReads)
	r.metric("setup_s", median(e.setupS), "s", len(e.setupS))
	r.metric("server_rss_mb", e.rssMB, "MB", 1)
	r.line("failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Attempted)

	// Latencies come from the open phase (ic-*) or the closed loop
	// (appb-agg), measured from each request's intended send time.
	reads, byQuery := readLatencies(measured)
	fmt.Printf("  read_* metrics: median over %d slices of the slice's value\n", len(e.slices))
	r.metric("read_ops_per_s", median(opsPerS), "1/s", okReads(closed))
	r.metric("read_p50_ms", median(p50s), "ms", len(reads))
	r.metric("read_tail_ms", median(tails), "ms", len(reads))
	fmt.Printf("  read_tail_ms is the p%g read latency\n", s.tailQ*100)
	r.line("read_ops_per_s.all", float64(okReads(closed))/closed.elapsed.Seconds(), "1/s", okReads(closed))
	r.line("read_p50_ms.all", median(reads), "ms", len(reads))
	r.line("read_p95_ms", quantile(reads, 0.95), "ms", len(reads))
	r.line("read_p99_ms", quantile(reads, 0.99), "ms", len(reads))
	for _, q := range s.queries {
		r.line(q+"_p50_ms", median(byQuery[q]), "ms", len(byQuery[q]))
	}
	if s.mix[classWrite] > 0 {
		var byClass [numClasses][]float64
		for _, sm := range measured.samples {
			byClass[sm.class] = append(byClass[sm.class], sm.ms)
		}
		r.line("write_p50_ms", median(byClass[classWrite]), "ms", len(byClass[classWrite]))
		r.line("write_p99_ms", quantile(byClass[classWrite], 0.99), "ms", len(byClass[classWrite]))
		r.line("checkpoint_p50_ms", median(byClass[classCheckpoint]), "ms", len(byClass[classCheckpoint]))
	}
	if s.openRate > 0 {
		// The generator may fall behind by less than one inter-arrival
		// interval; beyond that it no longer offers the fixed rate.
		lag, bound := quantile(open.lagMs, 0.99), 1000/s.openRate
		r.line("load.open_lag_ms_p99", lag, "ms", len(open.lagMs))
		if lag > bound {
			return nil, fmt.Errorf("run invalid: the open-phase generator ran %.2f ms late at p99 (bound %.1f ms)", lag, bound)
		}
	}
	res.Metrics = r.metrics
	return res, nil
}

// okReads counts the phase's reads that succeeded.
func okReads(pr *phaseResult) int {
	n := 0
	for _, sm := range pr.samples {
		if sm.class == classRead && !sm.failed {
			n++
		}
	}
	return n
}

// readLatencies returns the phase's read latencies, all and by query.
func readLatencies(pr *phaseResult) ([]float64, map[string][]float64) {
	var reads []float64
	byQuery := map[string][]float64{}
	for _, sm := range pr.samples {
		if sm.class == classRead {
			reads = append(reads, sm.ms)
			byQuery[sm.query] = append(byQuery[sm.query], sm.ms)
		}
	}
	return reads, byQuery
}

// queryMedianMean averages the workload's per-query median latencies.
func queryMedianMean(s *spec, byQuery map[string][]float64) float64 {
	var medians []float64
	for _, q := range s.queries {
		medians = append(medians, median(byQuery[q]))
	}
	return mean(medians)
}
