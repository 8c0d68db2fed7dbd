package main

import (
	"fmt"
	"runtime"
	"strings"

	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/load"
)

// Op classes. The numbering indexes per-class arrays.
const (
	classRead = iota
	classWrite
	classCheckpoint
	numClasses
)

var classNames = [numClasses]string{"read", "write", "checkpoint"}

// hops is the KNOWS repetition bound of every IC query: -(Knows*1..2)-.
const hops = 2

// Op-index bases. Each phase draws its ops from its own index range, so
// the open phase sends the same requests whatever the closed phase
// managed to complete, and the verification reads are the same on every
// run with one seed. The bases are multiples of the mix pattern length.
const (
	baseClosed = 0
	baseOpen   = 1_000_000
	baseVerify = 2_000_000
)

// spec is one named workload.
type spec struct {
	name string
	sf   float64
	// mix is the read:write:checkpoint weight of the op stream.
	mix [numClasses]int
	// clients is the closed-phase client count. Every phase keeps at most
	// this many requests in flight, so it is also the connection cap.
	clients int
	// openRate is the open phase's arrival rate in ops/s; 0 means the
	// workload runs closed-loop only.
	openRate float64
	// tailQ is the quantile read_tail_ms reports: the highest one with
	// at least ten reads beyond it at the workload's sample count.
	tailQ float64
	// queries lists the short names of the read queries, in the order
	// the op stream cycles through them.
	queries []string
}

// icOpenRate is the ic-* open-phase rate. It sits well below the
// closed-loop capacity of a 2-vCPU host (200–300 reads/s on ic-hot), so
// the open phase measures latency, not a growing backlog, and leaves the
// generator room to send on time while the host is slow: at 70/s its p99
// lateness passed the 14.3 ms interval in runs where reads took twice
// their usual time.
const icOpenRate = 50

// closedShare is the share of each ic-* slice given to the closed phase;
// the rest runs open-loop.
const closedShare = 0.4

func specs() map[string]*spec {
	nproc := runtime.NumCPU()
	ic := []string{"ic3", "ic5", "ic6", "ic9", "ic11"}
	return map[string]*spec{
		"ic-hot": {
			name: "ic-hot", sf: 1, mix: [numClasses]int{1, 0, 0},
			clients: nproc, openRate: icOpenRate, tailQ: 0.95,
			queries: ic,
		},
		"ic-churn": {
			name: "ic-churn", sf: 1, mix: [numClasses]int{80, 18, 2},
			clients: nproc, openRate: icOpenRate, tailQ: 0.95,
			queries: ic,
		},
		"appb-agg": {
			name: "appb-agg", sf: 0.5, mix: [numClasses]int{1, 0, 0},
			clients: 1, tailQ: 0.8,
			queries: []string{"qacc", "qgs"},
		},
	}
}

func (s *spec) isIC() bool { return s.name != "appb-agg" }

// sources returns the GSQL sources gsqld installs for the workload,
// keyed by installed query name.
func (s *spec) sources() map[string]string {
	if s.isIC() {
		out := map[string]string{}
		for short, src := range ldbc.ICQueries(hops) {
			out[ldbc.ICName(short, hops)] = src
		}
		return out
	}
	return map[string]string{"Qacc": ldbc.QACC(), "Qgs": ldbc.QGS()}
}

// op is one request of a workload's op stream.
type op struct {
	class  int
	query  string // short read-query name ("ic3", "qacc"); "" for writes
	name   string // installed query name
	params map[string]any
	mut    ldbc.Mutation
}

// stream generates a workload's ops as a pure function of (seed, index):
// reads and mutations come from internal/load's LDBC workload, Appendix B
// windows from the same seeded mixer.
type stream struct {
	s       *spec
	seed    int64
	w       *load.Workload
	pattern []slot
}

type slot struct {
	class int
	seq   uint64 // index of this slot's op within its class, per pattern
}

func newStream(s *spec, seed int64) (*stream, error) {
	st := &stream{s: s, seed: seed, pattern: mixPattern(s.mix)}
	if s.isIC() {
		w, err := load.NewWorkload(ldbc.Config{SF: s.sf, Seed: seed}, seed, hops, s.queries, "bench")
		if err != nil {
			return nil, err
		}
		st.w = w
	}
	return st, nil
}

// mixPattern spreads the mix weights evenly over one pattern period
// (smooth weighted round-robin), so writes and checkpoints interleave
// with reads instead of arriving in bursts.
func mixPattern(mix [numClasses]int) []slot {
	total := 0
	for _, w := range mix {
		total += w
	}
	var cur [numClasses]int
	var seen [numClasses]uint64
	out := make([]slot, total)
	for i := range out {
		best := -1
		for c, w := range mix {
			cur[c] += w
			if w > 0 && (best < 0 || cur[c] > cur[best]) {
				best = c
			}
		}
		cur[best] -= total
		out[i] = slot{class: best, seq: seen[best]}
		seen[best]++
	}
	return out
}

// at returns op i of the stream.
func (st *stream) at(i uint64) op {
	period := uint64(len(st.pattern))
	sl := st.pattern[i%period]
	seq := (i/period)*uint64(st.s.mix[sl.class]) + sl.seq
	switch sl.class {
	case classWrite:
		return op{class: classWrite, mut: st.w.Write(seq)}
	case classCheckpoint:
		return op{class: classCheckpoint}
	}
	if st.s.isIC() {
		name, params := st.w.Read(seq)
		return op{class: classRead, query: strings.TrimSuffix(name, fmt.Sprintf("_h%d", hops)), name: name, params: params}
	}
	// Appendix B: Qacc and Qgs alternate, and each consecutive pair
	// shares one date window of fixed width.
	lo, hi := st.window(seq / 2)
	if seq%2 == 0 {
		return op{class: classRead, query: "qacc", name: "Qacc", params: map[string]any{"lo": lo, "hi": hi}}
	}
	return op{class: classRead, query: "qgs", name: "Qgs", params: map[string]any{"lo": lo, "hi": hi}}
}

// Appendix B windows are three years wide, starting somewhere in the
// generator's first year (2009), so each covers about three quarters of
// the generated comments, as the paper's 2010–2012 window does.
const (
	epoch2009   = 1230768000
	windowWidth = 3 * 365 * 86400
	yearSeconds = 365 * 86400
)

func (st *stream) window(k uint64) (lo, hi int64) {
	lo = epoch2009 + int64(mix64(uint64(st.seed)^mix64(k*0x9e3779b97f4a7c15+0xa99))%yearSeconds)
	return lo, lo + windowWidth
}

// mix64 is the splitmix64 finalizer, the mixer internal/load and
// internal/ldbc use for their seeded draws.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
