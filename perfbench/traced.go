package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nowsim"
	"repro/internal/obs"
	"repro/internal/serve"
)

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(id uint64, name string, parent int) int {
	t.spans = append(t.spans, span{id: id, name: name, parent: parent, start: time.Since(t.origin), n: 1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].end = time.Since(t.origin)
	return t.spans[i].end - t.spans[i].start
}

// traced is the per-layer run: an untraced and a traced live phase on
// the same servers, then an in-process replay of the traced phase's
// request sequence.
func (b *bench) traced() (int, error) {
	tr := &tracer{origin: time.Now()}
	topo, _, err := b.setUp()
	if err != nil {
		return 0, err
	}
	var next atomic.Uint64
	half := time.Duration(b.o.seconds) * time.Second / 2
	plain, err := b.measure(topo, &next, half, false, tr.origin)
	if err != nil {
		return 0, err
	}
	live, err := b.measure(topo, &next, half, true, tr.origin)
	if err != nil {
		return 0, err
	}
	r := newReport()
	if b.w.gate {
		if err := b.gateAdded(r); err != nil {
			return 0, err
		}
	} else {
		r.unmeasured("gate.added_us.p50", "no gate in this workload")
	}
	b.ps.kill()
	tr.spans = appendSpans(tr.spans, live.ph.spans)

	all := mergePhases([]*phase{plain.ph, live.ph})
	v := newOracle().verify(all.answers, b.w.next, 2)

	b.header(r, plain)
	b.counters(r, topo, plain)
	b.paceFlag(r, plain)

	okPlain, _ := b.tally(plain.ph, verdict{})
	okLive, _ := b.tally(live.ph, verdict{})
	rpsPlain := float64(okPlain) / plain.ph.elapsed.Seconds()
	rpsLive := float64(okLive) / live.ph.elapsed.Seconds()
	r.set("trace.overhead_pct", 100*(rpsPlain-rpsLive)/rpsPlain)
	r.linef("throughput untraced %.1f req/s, traced %.1f req/s", rpsPlain, rpsLive)

	unbilled := sortDurations(live.ph.unbilled)
	p50, _ := percentile(unbilled, 0.5)
	r.set("serve.unbilled_us.p50", us(p50))
	r.linef("serve.unbilled_us.p50 over %d responses carrying Server-Timing", len(unbilled))

	if err := b.replay(r, tr, live.ph); err != nil {
		return 0, err
	}
	b.selfTimes(r, tr)
	if err := b.writeSpans(tr); err != nil {
		return 0, err
	}

	failed := all.failed + v.wrong + all.conflicts
	r.linef("error_ratio %.6g ratio (%d failed of %d attempted)", float64(failed)/float64(all.attempted), failed, all.attempted)
	return b.finish(r, perLayer, v, all, failed)
}

// counters turns the servers' counter deltas across the untraced phase
// into per-layer metrics.
func (b *bench) counters(r *report, topo *topology, m *measured) {
	completed := float64(len(m.ph.samples))
	bf, af := m.before, m.after
	hits := seriesSum(bf, af, "cs_serve_cache_hits_total")
	misses := seriesSum(bf, af, "cs_serve_cache_misses_total")
	r.set("serve.cache.hit_ratio", hits/(hits+misses))
	r.linef("serve.cache: %.0f hits, %.0f misses (peer lookups included)", hits, misses)
	r.set("serve.cache.evictions_per_req", seriesSum(bf, af, "cs_serve_cache_evictions_total")/completed)
	wait := 0.0
	for k := range topo.replicas {
		if q := af[k].series[`cs_serve_queue_wait_ms{quantile="0.99"}`]; q > wait {
			wait = q
		}
	}
	r.set("serve.pool.queue_wait_ms.p99", wait)
	r.set("serve.pool.rejected", seriesSum(bf, af, "cs_serve_rejected_total"))
	r.set("serve.coalesced_ratio", seriesSum(bf, af, "cs_serve_coalesced_total")/completed)

	gc := 0.0
	replicaCPU := time.Duration(0)
	for k := range af {
		gc += float64(af[k].numGC - bf[k].numGC)
	}
	for k := range topo.replicas {
		replicaCPU += af[k].stat.cpu - bf[k].stat.cpu
	}
	r.set("runtime.gc_per_kreq", gc/(completed/1000))
	r.set("replica.cpu_ms_per_req", ms(replicaCPU)/completed)
	r.set("client.cpu_ms_per_req", ms(m.clientCPU)/completed)

	if topo.gate == nil {
		for _, name := range []string{"cluster.peer.probes_per_miss", "cluster.peer.fill_hit_ratio", "gate.cpu_ms_per_req", "gate.failover"} {
			r.unmeasured(name, "no gate or peers in this workload")
		}
		return
	}
	g := len(topo.replicas)
	r.set("gate.cpu_ms_per_req", ms(af[g].stat.cpu-bf[g].stat.cpu)/completed)
	r.set("gate.failover", seriesSum(bf, af, "cs_gate_failover_total")+seriesSum(bf, af, "cs_gate_exhausted_total"))
	fills := seriesSum(bf, af, "cs_serve_peer_fill_total")
	probes := seriesSum(bf, af, "cs_cluster_peer_serve_total")
	fetchHit := seriesDelta(bf, af, `cs_cluster_peer_fetch_total{outcome="hit"}`)
	fetchMiss := seriesDelta(bf, af, `cs_cluster_peer_fetch_total{outcome="miss"}`)
	r.linef("cluster: %.0f local misses went to peers, %.0f peer lookups served, fetch hit %.0f miss %.0f", fills, probes, fetchHit, fetchMiss)
	if fills == 0 {
		r.unmeasured("cluster.peer.probes_per_miss", "no cache miss reached peer fill in the timed phase")
		r.unmeasured("cluster.peer.fill_hit_ratio", "no cache miss reached peer fill in the timed phase")
		return
	}
	r.set("cluster.peer.probes_per_miss", probes/fills)
	r.set("cluster.peer.fill_hit_ratio", fetchHit/(fetchHit+fetchMiss))
}

// gateAdded sends the same warm plans through the gate and straight to
// each key's owner, alternating which goes first, and reports the
// difference of the two medians.
func (b *bench) gateAdded(r *report) error {
	ring := cluster.NewRing(gateReplicas)
	gc, err := dial(gateAddr)
	if err != nil {
		return err
	}
	defer gc.close()
	direct := map[string]*conn{}
	for _, u := range gateReplicas {
		c, err := dial(strings.TrimPrefix(u, "http://"))
		if err != nil {
			return err
		}
		defer c.close()
		direct[u] = c
	}
	var viaGate, viaOwner []time.Duration
	for rep := 0; rep < 4; rep++ {
		for k, req := range b.w.hot {
			if req.route != "plan" {
				continue
			}
			first, second := gc, direct[ring.Owner(req.key)]
			if (rep+k)%2 == 1 {
				first, second = second, first
			}
			for _, c := range []*conn{first, second} {
				res, err := c.do(req, false)
				if err != nil {
					return err
				}
				if res.status != http.StatusOK {
					return fmt.Errorf("warm plan answered HTTP %d", res.status)
				}
				if c == gc {
					viaGate = append(viaGate, res.t.lastByte)
				} else {
					viaOwner = append(viaOwner, res.t.lastByte)
				}
			}
		}
	}
	g50, _ := percentile(sortDurations(viaGate), 0.5)
	o50, _ := percentile(sortDurations(viaOwner), 0.5)
	r.set("gate.added_us.p50", us(g50-o50))
	r.linef("gate.added_us.p50 from %d pairs: through the gate %.1f us, direct to the owner %.1f us", len(viaGate), us(g50), us(o50))
	return nil
}

// liveAnswer is the per-response part of an answer body.
type liveAnswer struct {
	Cached     bool    `json:"cached"`
	PeerFilled bool    `json:"peer_filled"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// replay runs the traced phase's requests in-process through each
// layer's public functions, in sequence order, with no server running.
func (b *bench) replay(r *report, tr *tracer, ph *phase) error {
	first, last := ph.firstIdx, ph.nextIdx
	const batchCap = 50000
	var reqs []request
	for i := first; i < last && len(reqs) < batchCap; i++ {
		reqs = append(reqs, b.w.next(i))
	}
	if len(reqs) == 0 {
		return fmt.Errorf("the traced phase sent no requests")
	}
	keys := make([]string, len(reqs))
	for k, q := range reqs {
		keys[k] = q.key
	}
	b.replayBatches(r, tr, first, reqs, keys)
	return b.replayRequests(r, tr, ph)
}

// timeBatch repeats fn over the whole batch until at least 100ms have
// passed and returns the time per call; each repetition is one span
// covering n calls.
func timeBatch(tr *tracer, id uint64, name string, n int, fn func()) float64 {
	var total time.Duration
	calls := 0
	for total < 100*time.Millisecond {
		s := tr.begin(id, name, -1)
		fn()
		total += tr.end(s)
		tr.spans[s].n = n
		calls += n
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// replayBatches measures the nanosecond-scale layers over the run's
// keys: canonicalization, the LRU cache and the rendezvous ring.
func (b *bench) replayBatches(r *report, tr *tracer, first uint64, reqs []request, keys []string) {
	var plans []serve.PlanSpec
	var ests []serve.EstimateSpec
	for _, q := range reqs {
		if q.route == "plan" {
			var s serve.PlanSpec
			_ = json.Unmarshal(q.body, &s) // generated bodies always decode
			plans = append(plans, s)
		} else {
			var s serve.EstimateSpec
			_ = json.Unmarshal(q.body, &s)
			ests = append(ests, s)
		}
	}
	var sink int
	r.set("serve.spec.canon_ns", timeBatch(tr, first, "serve.spec.canon", len(reqs), func() {
		for _, s := range plans {
			c, _ := s.Canonicalize()
			sink += len(c.Key())
		}
		for _, s := range ests {
			c, _ := s.Canonicalize()
			sink += len(c.Key())
		}
	}))

	var val any = serve.PlanResponse{}
	prime := func() *serve.Cache {
		c := serve.NewCache(4096, 16, serve.CacheMetrics{})
		for _, h := range b.w.hot {
			c.Put(h.key, val)
		}
		return c
	}
	got := prime()
	for _, k := range keys {
		got.Put(k, val)
	}
	r.set("serve.cache.get_ns", timeBatch(tr, first, "serve.cache.get", len(keys), func() {
		for _, k := range keys {
			if _, ok := got.Get(k); ok {
				sink++
			}
		}
	}))
	var put *serve.Cache
	var putTotal time.Duration
	putCalls := 0
	for putTotal < 100*time.Millisecond {
		put = prime() // each repetition starts from the primed cache
		s := tr.begin(first, "serve.cache.put", -1)
		for _, k := range keys {
			put.Put(k, val)
		}
		putTotal += tr.end(s)
		tr.spans[s].n = len(keys)
		putCalls += len(keys)
	}
	r.set("serve.cache.put_ns", float64(putTotal.Nanoseconds())/float64(putCalls))

	ring := cluster.NewRing(gateReplicas)
	r.set("cluster.ring.owners_ns", timeBatch(tr, first, "cluster.ring.owners", len(keys), func() {
		for _, k := range keys {
			sink += len(ring.Owners(k, ring.Len()))
		}
	}))
	owned := map[string]int{}
	distinct := map[string]bool{}
	for _, k := range keys {
		if !distinct[k] {
			distinct[k] = true
			owned[ring.Owner(k)]++
		}
	}
	most := 0
	for _, n := range owned {
		if n > most {
			most = n
		}
	}
	r.set("cluster.ring.max_share", float64(most)/(float64(len(distinct))/float64(ring.Len())))
	r.linef("cluster.ring over %d distinct keys and the fixed replica URLs: %v", len(distinct), owned)
	if sink < 0 {
		fmt.Fprintln(os.Stderr, sink) // keeps the timed loops from being optimized away
	}
}

// replayRequests replays the traced phase request by request: the
// in-process handler on every request, and on a key's first sight the
// compute the server did for it (planning, policy parsing, Monte-Carlo).
func (b *bench) replayRequests(r *report, tr *tracer, ph *phase) error {
	estCache := 0
	if b.w.gate {
		estCache = 512 * len(gateReplicas) // the cluster's combined capacity
	}
	srv := serve.New(serve.Config{Registry: obs.NewRegistry(), EstimateCacheEntries: estCache})
	defer srv.Drain()
	mux := http.NewServeMux()
	srv.Routes(mux)
	handle := func(q request) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, q.path(), bytes.NewReader(q.body)))
		return rec.Code
	}
	for _, q := range b.w.hot {
		if code := handle(q); code != http.StatusOK {
			return fmt.Errorf("in-process priming answered HTTP %d", code)
		}
	}

	var (
		handlerUS, planUS, policyUS, progUS []float64
		evaluations                         int
		mcTime                              time.Duration
		mcEpisodes                          int64
		mcAllocs                            uint64
		shareMC                             time.Duration
		shareServerMS                       float64
		seen                                = map[string]bool{}
		replayed                            int
	)
	budget := time.Duration(b.o.seconds) * time.Second / 2
	start := time.Now()
	for i := ph.firstIdx; i < ph.nextIdx && time.Since(start) < budget; i++ {
		q := b.w.next(i)
		root := tr.begin(i, "replay.request", -1)
		if !seen[q.key] {
			seen[q.key] = true
			switch q.route {
			case "plan":
				var spec serve.PlanSpec
				_ = json.Unmarshal(q.body, &spec)
				norm, _ := spec.Canonicalize()
				life, err := buildLife(norm)
				if err != nil {
					return err
				}
				s := tr.begin(i, "core.plan", root)
				pl, err := core.NewPlanner(life, norm.C, core.PlanOptions{})
				if err != nil {
					return err
				}
				plan, err := pl.PlanBest()
				planUS = append(planUS, us(tr.end(s)))
				if err != nil {
					return err
				}
				evaluations += plan.Evaluations
			case "estimate":
				mc, err := b.replayEstimate(tr, root, i, q, &policyUS, &progUS, &mcEpisodes, &mcAllocs, &mcTime)
				if err != nil {
					return err
				}
				if a, ok := ph.answers[q.key]; ok && a.index == i {
					var la liveAnswer
					if json.Unmarshal(a.body, &la) == nil && !la.Cached && !la.PeerFilled {
						shareMC += mc
						shareServerMS += la.ElapsedMS
					}
				}
			}
		}
		s := tr.begin(i, "serve.handler", root)
		code := handle(q)
		handlerUS = append(handlerUS, us(tr.end(s)))
		tr.end(root)
		if code != http.StatusOK {
			return fmt.Errorf("in-process handler answered HTTP %d for %s", code, q.body)
		}
		replayed++
	}
	r.linef("replay: %d requests in process (indexes %d..%d)", replayed, ph.firstIdx, ph.firstIdx+uint64(replayed)-1)

	setMedian := func(name string, xs []float64, why string) {
		if len(xs) == 0 {
			r.unmeasured(name, why)
			return
		}
		r.set(name, median(xs))
		r.linef("%s: median of %d calls", name, len(xs))
	}
	setMedian("serve.handler_us.p50", handlerUS, "no request replayed")
	if len(planUS) == 0 {
		for _, name := range []string{"core.plan_us.p50", "core.plan_us.p99", "core.evaluations_per_plan"} {
			r.unmeasured(name, "the workload sends no plan requests")
		}
	} else {
		sort.Float64s(planUS)
		rank := int(0.99*float64(len(planUS))+0.999999) - 1
		r.set("core.plan_us.p50", median(planUS))
		r.set("core.plan_us.p99", planUS[rank])
		r.set("core.evaluations_per_plan", float64(evaluations)/float64(len(planUS)))
		r.linef("core.plan_us: %d plans, %d above p99", len(planUS), len(planUS)-1-rank)
		if len(planUS)-1-rank < 10 {
			r.flagf("core.plan_us.p99 rests on %d samples above it (want >= 10)", len(planUS)-1-rank)
		}
	}
	setMedian("core.progressive_next_us", progUS, "the workload sends no progressive estimates")
	setMedian("nowsim.policy_us", policyUS, "the workload sends no guideline estimates")
	if mcEpisodes == 0 {
		r.unmeasured("nowsim.episode_ns", "the workload sends no schedule-policy estimates")
		r.unmeasured("nowsim.allocs_per_episode", "the workload sends no schedule-policy estimates")
	} else {
		r.set("nowsim.episode_ns", float64(mcTime.Nanoseconds())/float64(mcEpisodes))
		r.set("nowsim.allocs_per_episode", float64(mcAllocs)/float64(mcEpisodes))
		r.linef("nowsim: %d schedule-policy episodes replayed", mcEpisodes)
	}
	if shareServerMS == 0 {
		r.unmeasured("nowsim.mc_share", "no replayed estimate was computed by the server in the traced phase")
	} else {
		r.set("nowsim.mc_share", ms(shareMC)/shareServerMS)
	}
	return nil
}

// replayEstimate parses the estimate's policy and runs its Monte-Carlo
// in-process, returning the Monte-Carlo time. Progressive policies also
// time one re-planning step; their episodes stay out of the per-episode
// figures, which describe the schedule-driven loop.
func (b *bench) replayEstimate(tr *tracer, root int, i uint64, q request, policyUS, progUS *[]float64, episodes *int64, allocs *uint64, mcTime *time.Duration) (time.Duration, error) {
	var spec serve.EstimateSpec
	_ = json.Unmarshal(q.body, &spec)
	norm, _ := spec.Canonicalize()
	life, err := buildLife(norm.PlanSpec)
	if err != nil {
		return 0, err
	}
	s := tr.begin(i, "nowsim.policy", root)
	pol, err := nowsim.ParsePolicy(norm.Policy, life, norm.C, core.PlanOptions{})
	d := tr.end(s)
	if pol.Plan != nil {
		*policyUS = append(*policyUS, us(d)) // the guideline re-plan; other policies parse in microseconds
	}
	if err != nil {
		return 0, err
	}
	progressive := norm.Policy == "progressive"
	if progressive {
		s := tr.begin(i, "core.progressive.next", root)
		prog, err := core.NewProgressive(life, norm.C, core.PlanOptions{ScanPoints: 16})
		if err != nil {
			return 0, err
		}
		_, _, err = prog.NextPeriod()
		*progUS = append(*progUS, us(tr.end(s)))
		if err != nil {
			return 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s = tr.begin(i, "nowsim.mc", root)
	res, err := nowsim.MonteCarloCtx(context.Background(), pol.Factory(), nowsim.LifeOwner{Life: life}, norm.C, norm.Episodes, norm.Seed, nowsim.Obs{})
	d = tr.end(s)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, err
	}
	if !progressive {
		*episodes += res.Episodes
		*allocs += m1.Mallocs - m0.Mallocs
		*mcTime += d
	}
	return d, nil
}

// selfTimes prints each span name's total and self time: a span's self
// time is its length minus the part of it its children cover.
func (b *bench) selfTimes(r *report, tr *tracer) {
	children := map[int][]int{}
	for k, s := range tr.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], k)
		}
	}
	type agg struct {
		count       int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for k, s := range tr.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.count++
		a.total += s.end - s.start
		a.self += s.end - s.start - covered(tr.spans, children[k], s)
	}
	for _, name := range sortedKeys(by) {
		a := by[name]
		r.linef("span %-24s %8d spans  total %10.3f ms  self %10.3f ms", name, a.count, ms(a.total), ms(a.self))
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(spans []span, kids []int, parent span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < parent.start {
			a = parent.start
		}
		if b > parent.end {
			b = parent.end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for k, v := range ivs {
		if k == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeSpans writes the run's spans as JSON lines.
func (b *bench) writeSpans(tr *tracer) error {
	if err := os.MkdirAll(b.o.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.o.spans, b.w.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var line []byte
	for _, s := range tr.spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendUint(line, s.id, 10)
		line = append(line, `,"name":"`...)
		line = append(line, s.name...)
		line = append(line, `","parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, int64(s.start), 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, int64(s.end), 10)
		line = append(line, `,"calls":`...)
		line = strconv.AppendInt(line, int64(s.n), 10)
		line = append(line, "}\n"...)
		bw.Write(line)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
