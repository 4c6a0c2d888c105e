// Command perfbench is the repository's end-to-end benchmark. It boots
// fresh csserve processes (and, for gate-mix, csgate in front of three
// csserve replicas) from built binaries, drives one seeded closed-loop
// workload against them, checks every distinct answer against the
// in-process model, and prints the end-to-end metrics by name. With
// -trace 1 it instead prints the per-layer metrics: client spans and the
// servers' own counters from a live run, then an in-process replay of
// the same request sequence through each layer's public functions.
//
// Usage (from the repository root, after building the servers; run.sh
// does both):
//
//	perfbench -workload plan-hot -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit status: 0 when every
// answer was right, 1 when the oracle found a wrong one, 2 when the run
// could not be made (bad flags, missing binaries, a port taken or a
// stray server alive).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	bin      string
	spans    string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed sends the same request bytes")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	fs.StringVar(&o.bin, "bin", filepath.Join(".bench_build", "bin"), "directory holding the csserve and csgate binaries")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for _, b := range []string{"csserve", "csgate"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: missing server binary: %v\n", err)
			return 2
		}
	}
	if err := checkHost(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to run:", err)
		return 2
	}

	ps := &procSet{}
	defer ps.kill()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			ps.kill()
			os.Exit(2)
		}
	}()

	//lint:allow goroutinecap the signal handler only calls procSet.kill, which takes the set's mutex
	b := &bench{o: o, w: w, ps: ps}
	var code int
	if o.trace == 0 {
		code, err = b.endToEnd()
	} else {
		code, err = b.traced()
	}
	if err != nil {
		ps.kill()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return code
}

// bench is one run of one workload.
type bench struct {
	o          options
	w          *workload
	ps         *procSet
	setupParts []string
}

// setupConns is the connection count of priming and warm-up: one per
// core of the two-core machine the benchmark is sized for, whatever the
// workload's own count.
const setupConns = 2

// setUp boots the servers, primes the hot set and sends the warm-up
// batch; it returns the topology and the time that took.
func (b *bench) setUp() (*topology, time.Duration, error) {
	start := time.Now()
	topo, err := boot(b.ps, b.o.bin, b.w.gate)
	if err != nil {
		return nil, 0, err
	}
	booted := time.Now()
	if err := sendAll(topo.target, setupConns, b.w.hot); err != nil {
		return nil, 0, fmt.Errorf("priming: %w", err)
	}
	primed := time.Now()
	if err := sendAll(topo.target, setupConns, b.w.warmup); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	b.setupParts = append(b.setupParts, fmt.Sprintf("boot %.3fs prime %.3fs warm-up %.3fs",
		booted.Sub(start).Seconds(), primed.Sub(booted).Seconds(), time.Since(primed).Seconds()))
	return topo, time.Since(start), nil
}

// measured is one timed phase with the counters around it.
type measured struct {
	ph            *phase
	before, after []snapshot
	clientCPU     time.Duration
}

func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bench) measure(topo *topology, next *atomic.Uint64, d time.Duration, traced bool, origin time.Time) (*measured, error) {
	procs := topo.all()
	before, err := scrapeAll(procs)
	if err != nil {
		return nil, err
	}
	// One P is plenty for the generator, and it keeps the client from
	// spreading over both cores while the servers run; the oracle and
	// the replay get every core back afterwards.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	cpu0 := cpuSelf()
	ph, err := drive(topo.target, b.w.conns, b.w.next, next, d, traced, origin)
	if err != nil {
		return nil, err
	}
	clientCPU := cpuSelf() - cpu0
	after, err := scrapeAll(procs)
	if err != nil {
		return nil, err
	}
	return &measured{ph: ph, before: before, after: after, clientCPU: clientCPU}, nil
}

// rounds is the number of set-ups and timed phases of an untraced run.
// Throughput and the latency percentiles are medians over the rounds: a
// stall of the shared machine that spoils one or two rounds does not
// move them.
const rounds = 5

// roundStats is one round's own figures.
type roundStats struct {
	rps, p50, p99 float64
	above         int // samples above the round's p99
}

// endToEnd is the untraced run: rounds, each on freshly booted servers,
// each timing an equal share of -seconds. The request indexes run on
// across rounds, so no cold key repeats.
func (b *bench) endToEnd() (int, error) {
	r := newReport()
	var (
		setups, rss []float64
		stats       []roundStats
		phases      []*phase
		allocs      float64
		clientCPU   time.Duration
		next        atomic.Uint64
	)
	share := time.Duration(b.o.seconds) * time.Second / rounds
	for k := 0; k < rounds; k++ {
		topo, d, err := b.setUp()
		if err != nil {
			return 0, err
		}
		setups = append(setups, d.Seconds())
		m, err := b.measure(topo, &next, share, false, time.Now())
		if err != nil {
			return 0, err
		}
		b.ps.kill()
		phases = append(phases, m.ph)
		clientCPU += m.clientCPU
		hwm := 0.0
		for j := range m.after {
			allocs += float64(m.after[j].mallocs - m.before[j].mallocs)
			hwm += float64(m.after[j].stat.hwmKiB) * 1024 / 1e6
		}
		rss = append(rss, hwm)
		lat := okLatencies(m.ph)
		p50, _ := percentile(lat, 0.5)
		p99, above := percentile(lat, 0.99)
		rs := roundStats{rps: float64(len(lat)) / m.ph.elapsed.Seconds(), p50: ms(p50), p99: ms(p99), above: above}
		stats = append(stats, rs)
		r.linef("round %d: %.1f req/s, p50 %.4f ms, p99 %.4f ms (%d samples, %d above p99), set-up %.3fs",
			k, rs.rps, rs.p50, rs.p99, len(lat), above, d.Seconds())
	}
	ph := mergePhases(phases)
	v := newOracle().verify(ph.answers, b.w.next, 2)

	b.header(r, &measured{ph: ph})
	ok, wrong := b.tally(ph, v)
	col := func(f func(roundStats) float64) float64 {
		xs := make([]float64, len(stats))
		for k, rs := range stats {
			xs[k] = f(rs)
		}
		return median(xs)
	}
	// A wrong answer is not a success: scale the rate by the right share.
	right := 0.0
	if ok > 0 {
		right = float64(ok-wrong) / float64(ok)
	}
	r.set("throughput_rps", col(func(rs roundStats) float64 { return rs.rps })*right)
	r.set("latency_p50_ms", col(func(rs roundStats) float64 { return rs.p50 }))
	lat := okLatencies(ph)
	minAbove := stats[0].above
	for _, rs := range stats {
		minAbove = min(minAbove, rs.above)
	}
	pooled, above := percentile(lat, 0.99)
	if minAbove >= 10 {
		r.set("latency_p99_ms", col(func(rs roundStats) float64 { return rs.p99 }))
		r.linef("latency_p99_ms: median of the rounds' p99, each with at least %d samples above it", minAbove)
	} else {
		r.set("latency_p99_ms", ms(pooled))
		r.linef("latency_p99_ms: a round has only %d samples above its p99, so p99 is over all %d samples pooled (%d above)", minAbove, len(lat), above)
		if above < 10 {
			r.flagf("p99 rests on %d samples above it (want >= 10)", above)
		}
	}
	r.set("setup_s", median(setups))
	r.set("rss_peak_mb", median(rss))
	r.set("server_allocs_per_req", allocs/float64(len(ph.samples)))

	failed := ph.failed + wrong
	r.linef("samples: %d latencies in all", len(lat))
	r.linef("error_ratio %.6g ratio (%d failed of %d attempted: %d transport/non-200, %d wrong answers)",
		float64(failed)/float64(ph.attempted), failed, ph.attempted, ph.failed, wrong)
	r.linef("setup_s parts: %s", strings.Join(b.setupParts, "; "))
	r.linef("client.cpu_ms_per_req %.6g ms", ms(clientCPU)/float64(len(ph.samples)))
	b.paceFlag(r, &measured{ph: ph, clientCPU: clientCPU})
	return b.finish(r, endToEnd, v, ph, failed)
}

// okLatencies returns the sorted latencies of a phase's 200 answers.
func okLatencies(ph *phase) []time.Duration {
	var lat []time.Duration
	for _, s := range ph.samples {
		if s.ok {
			lat = append(lat, s.latency)
		}
	}
	return sortDurations(lat)
}

// mergePhases pools several phases' samples and answers; an answer
// that differs between phases for one key counts as a conflict.
func mergePhases(phs []*phase) *phase {
	out := &phase{answers: map[string]*answer{}, firstIdx: phs[0].firstIdx, nextIdx: phs[len(phs)-1].nextIdx}
	for _, p := range phs {
		out.attempted += p.attempted
		out.failed += p.failed
		out.conflicts += p.conflicts
		out.coldRepeats += p.coldRepeats
		out.samples = append(out.samples, p.samples...)
		out.elapsed += p.elapsed
		out.errs = append(out.errs, p.errs...)
		for key, a := range p.answers {
			prev, ok := out.answers[key]
			if !ok {
				out.answers[key] = a
				continue
			}
			if prev.sum != a.sum {
				out.conflicts += a.count
			}
			if a.cold {
				out.coldRepeats++
			}
			prev.count += a.count
		}
	}
	return out
}

// header prints what ran.
func (b *bench) header(r *report, m *measured) {
	topo := "direct to one csserve"
	if b.w.gate {
		topo = "csgate in front of three csserve replicas"
	}
	r.linef("workload %s seed %d: closed loop, %d connection(s), %s; timed phase %.3fs, %d requests (indexes %d..%d)",
		b.w.name, b.o.seed, b.w.conns, topo, m.ph.elapsed.Seconds(), m.ph.attempted, m.ph.firstIdx, m.ph.nextIdx-1)
}

// tally returns the successful responses and the responses carrying a
// wrong answer (oracle verdicts plus answers that changed for a key).
func (b *bench) tally(ph *phase, v verdict) (ok, wrong int) {
	for _, s := range ph.samples {
		if s.ok {
			ok++
		}
	}
	return ok, v.wrong + ph.conflicts
}

// paceFlag marks a run whose client, not its servers, set the pace. A
// closed-loop connection alternates between waiting for the server and
// running the generator; when the generator's CPU fills half of the
// connections' time, the client is the bottleneck.
func (b *bench) paceFlag(r *report, m *measured) {
	if busy := m.clientCPU.Seconds() / (m.ph.elapsed.Seconds() * float64(b.w.conns)); busy > 0.5 {
		r.flagf("the generator was busy %.0f%% of the connections' time: the client, not the server, set the pace", 100*busy)
	}
}

// finish reports the oracle's findings and prints the result.
func (b *bench) finish(r *report, defs []metricDef, v verdict, ph *phase, failed int) (int, error) {
	r.linef("oracle: %d distinct answers checked, %d wrong responses, %d answers that changed for one key", v.checked, v.wrong, ph.conflicts)
	for _, msg := range v.msgs {
		r.flagf("wrong answer: %s", msg)
	}
	for _, e := range ph.errs {
		r.flagf("failed request: %s", e)
	}
	if ph.coldRepeats > 0 {
		r.flagf("the generator repeated %d cold keys", ph.coldRepeats)
	}
	correct := v.wrong == 0 && ph.conflicts == 0 && ph.coldRepeats == 0
	if err := r.write(os.Stdout, defs, correct, ph.attempted, failed); err != nil {
		return 0, err
	}
	if !correct {
		return 1, nil
	}
	return 0, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
