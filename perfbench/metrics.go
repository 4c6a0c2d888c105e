package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. For a per-layer metric, moves and
// on record which end-to-end metric it should move, on which workload.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics of an untraced run. error_ratio is printed
// beside them but travels in the result's attempted/failed counts: it is
// 0 on correct code, and a bound relative to 0 means nothing.
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "req/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
	{name: "server_allocs_per_req", unit: "objects", better: "lower"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"serve.spec.canon_ns", "ns", "lower", "throughput_rps", "plan-hot"},
	{"serve.handler_us.p50", "us", "lower", "latency_p50_ms, throughput_rps", "plan-hot"},
	{"serve.unbilled_us.p50", "us", "lower", "latency_p50_ms", "plan-hot, gate-mix"},
	{"serve.cache.get_ns", "ns", "lower", "throughput_rps", "plan-hot, gate-mix"},
	{"serve.cache.hit_ratio", "ratio", "higher", "throughput_rps", "plan-hot, gate-mix"},
	{"serve.cache.put_ns", "ns", "lower", "throughput_rps", "plan-cold"},
	{"serve.cache.evictions_per_req", "count", "lower", "throughput_rps", "plan-cold"},
	{"serve.pool.queue_wait_ms.p99", "ms", "lower", "latency_p99_ms", "plan-cold, estimate-cold"},
	{"serve.pool.rejected", "count", "lower", "error_ratio", "all"},
	{"serve.coalesced_ratio", "ratio", "lower", "error_ratio", "all"},
	{"core.plan_us.p50", "us", "lower", "latency_p50_ms, throughput_rps", "plan-cold"},
	{"core.plan_us.p99", "us", "lower", "latency_p50_ms, throughput_rps", "plan-cold"},
	{"core.evaluations_per_plan", "count", "lower", "throughput_rps", "plan-cold"},
	{"core.progressive_next_us", "us", "lower", "throughput_rps", "estimate-cold"},
	{"nowsim.episode_ns", "ns", "lower", "latency_p50_ms, throughput_rps", "estimate-cold"},
	{"nowsim.allocs_per_episode", "count", "lower", "server_allocs_per_req", "estimate-cold"},
	{"nowsim.policy_us", "us", "lower", "latency_p50_ms", "estimate-cold"},
	{"nowsim.mc_share", "ratio", "lower", "share of estimate time the kernel owns", "estimate-cold"},
	{"cluster.ring.owners_ns", "ns", "lower", "throughput_rps", "gate-mix"},
	{"cluster.ring.max_share", "ratio", "lower", "throughput_rps via serve.cache.hit_ratio", "gate-mix"},
	{"cluster.peer.probes_per_miss", "count", "lower", "latency_p99_ms", "gate-mix"},
	{"cluster.peer.fill_hit_ratio", "ratio", "higher", "latency_p99_ms", "gate-mix"},
	{"gate.cpu_ms_per_req", "ms", "lower", "throughput_rps", "gate-mix"},
	{"replica.cpu_ms_per_req", "ms", "lower", "throughput_rps", "gate-mix, plan-hot"},
	{"gate.added_us.p50", "us", "lower", "latency_p50_ms", "gate-mix"},
	{"gate.failover", "count", "lower", "error_ratio", "gate-mix"},
	{"runtime.gc_per_kreq", "count", "lower", "throughput_rps, latency_p99_ms", "estimate-cold, plan-cold"},
	{"client.cpu_ms_per_req", "ms", "lower", "none (checks the generator is not the bottleneck)", "all"},
	{"trace.overhead_pct", "%", "lower", "none", "all"},
}

// report collects one run's metrics and notes.
type report struct {
	values map[string]float64
	notes  map[string]string // why a metric could not be measured
	lines  []string          // human-readable context, printed first
	flags  []string          // warnings about the run's validity
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// unmeasured records a metric this workload cannot measure, and why. It
// is reported as 0 so every run carries every name.
func (r *report) unmeasured(name, why string) {
	r.values[name] = 0
	r.notes[name] = why
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) flagf(format string, args ...any) {
	r.flags = append(r.flags, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the human-readable table and then, as the last line, the
// JSON result with exactly the metrics in defs.
func (r *report) write(w io.Writer, defs []metricDef, correct bool, attempted, failed int) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
		line := fmt.Sprintf("%-32s %14.6g %-8s", d.name, v, d.unit)
		if note, ok := r.notes[d.name]; ok {
			line += " not measured: " + note
		} else if d.moves != "" {
			line += " moves " + d.moves + " on " + d.on
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range r.flags {
		fmt.Fprintln(w, "FLAG:", f)
	}
	res := output{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// percentile is the nearest-rank q-quantile of sorted durations, with
// the number of samples strictly above it.
func percentile(sorted []time.Duration, q float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], len(sorted) - 1 - rank
}

func sortDurations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
