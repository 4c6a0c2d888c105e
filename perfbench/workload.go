package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/serve"
)

// request is one generated call: the route, the exact body the server
// receives, and the canonical cache key the answer must carry.
type request struct {
	route string // "plan" or "estimate"
	body  []byte
	key   string
	// cold marks a key the workload promises never to repeat.
	cold bool
}

func (r request) path() string { return "/v1/" + r.route }

// workload is one traffic mix. The timed sequence is a pure function of
// (seed, index), so a seed always yields the same bytes whatever the
// connection count or run length.
type workload struct {
	name  string
	conns int
	gate  bool
	// hot is primed before the warm-up; warmup is a fixed seeded batch
	// sent after priming. Both belong to set-up, not the timed phase.
	hot    []request
	warmup []request
	next   func(i uint64) request
}

// Fixed population seeds: the hot sets are part of a workload's
// definition, so every run asks about the same scenarios and the seed
// only draws the traffic over them.
const (
	hotPopulationSeed  = 0x5eed0001
	gatePopulationSeed = 0x5eed0002
)

var workloadNames = []string{"plan-hot", "plan-cold", "estimate-cold", "gate-mix"}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "plan-hot":
		return planHot(seed), nil
	case "plan-cold":
		return planCold(seed), nil
	case "estimate-cold":
		return estimateCold(seed), nil
	case "gate-mix":
		return gateMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mix is the splitmix64 finalizer: a bijection on uint64, so distinct
// inputs never collide.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream returns the generator for the index-th draw of a sequence.
func stream(seed, salt, index uint64) *rng.Source {
	return rng.New(mix(seed^salt) ^ mix(index))
}

// fracBits is the width of the fractional offset that makes cold keys
// unique. An integer base below 2^12 plus an odd multiple of 2^-40 fits
// a float64 significand exactly, so distinct offsets give distinct keys.
const fracBits = 39

// coldFraction maps index to a value in (0, 1): a bijection of the low
// fracBits bits (odd multiplier, xorshift), so two indexes below 2^39
// never share an offset. The offset never grows with the index.
func coldFraction(seed, index uint64) float64 {
	const m = 1<<fracBits - 1
	x := (index + mix(seed)) & m
	x = (x * 0x9e3779b97f4a7c15) & m
	x ^= x >> 19
	x = (x * 0xbf58476d1ce4e5b9) & m
	x ^= x >> 20
	return float64(2*x+1) / (1 << (fracBits + 1))
}

// block permutation: the index-th draw takes class perm[index%n] of its
// block, so every block of n requests holds each class exactly once and
// the mix composition does not vary from seed to seed.
func blockClass(seed, salt, index uint64, n int) int {
	src := stream(seed, salt, index/uint64(n))
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[index%uint64(n)]
}

func planRequest(spec serve.PlanSpec, cold bool) request {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a PlanSpec always marshals
	}
	norm, err := spec.Canonicalize()
	if err != nil {
		panic(fmt.Sprintf("generated an invalid plan spec %s: %v", body, err))
	}
	return request{route: "plan", body: body, key: norm.Key(), cold: cold}
}

func estimateRequest(spec serve.EstimateSpec, cold bool) request {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	norm, err := spec.Canonicalize()
	if err != nil {
		panic(fmt.Sprintf("generated an invalid estimate spec %s: %v", body, err))
	}
	return request{route: "estimate", body: body, key: norm.Key(), cold: cold}
}

// hotPopulation draws n distinct plan specs over the four life
// families, each with three extra bodies that carry fields the family
// ignores (they canonicalize onto the same key).
func hotPopulation(popSeed uint64, n int) [][]request {
	src := rng.New(popSeed)
	overheads := []float64{0.5, 1, 2}
	seen := map[string]bool{}
	var pop [][]request
	for len(pop) < n {
		var spec serve.PlanSpec
		c := overheads[src.Intn(len(overheads))]
		switch len(pop) % 4 {
		case 0:
			spec = serve.PlanSpec{Life: "uniform", Lifespan: float64(500 + 100*src.Intn(46)), C: c}
		case 1:
			spec = serve.PlanSpec{Life: "poly", Lifespan: float64(400 + 100*src.Intn(27)), D: 2 + src.Intn(3), C: c}
		case 2:
			spec = serve.PlanSpec{Life: "geomdec", HalfLife: 8 + 0.5*float64(src.Intn(65)), C: c}
		default:
			spec = serve.PlanSpec{Life: "geominc", Lifespan: float64(100 + 100*src.Intn(50)), C: c}
		}
		base := planRequest(spec, false)
		if seen[base.key] {
			continue
		}
		seen[base.key] = true
		variants := []request{base}
		for v := 0; v < 3; v++ {
			folded := spec
			switch spec.Life {
			case "uniform", "geominc":
				folded.HalfLife = float64(10 + src.Intn(90))
				folded.D = 2 + src.Intn(5)
			case "poly":
				folded.HalfLife = float64(10 + src.Intn(90))
			case "geomdec":
				folded.Lifespan = float64(200 + 100*src.Intn(50))
				folded.D = 2 + src.Intn(5)
			}
			r := planRequest(folded, false)
			if r.key != base.key {
				panic("folded body changed the canonical key")
			}
			variants = append(variants, r)
		}
		pop = append(pop, variants)
	}
	return pop
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(src *rng.Source) int {
	u := src.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// hotDraw picks a Zipf-popular spec and, a quarter of the time, one of
// its folded bodies.
func hotDraw(pop [][]request, z zipf, src *rng.Source) request {
	variants := pop[z.draw(src)]
	if src.Intn(4) == 0 {
		return variants[1+src.Intn(len(variants)-1)]
	}
	return variants[0]
}

func primeSet(pop [][]request) []request {
	out := make([]request, len(pop))
	for i, v := range pop {
		out[i] = v[0]
	}
	return out
}

// Salts separate the independent streams drawn from one seed.
const (
	saltTimed  = 0x7101
	saltWarmup = 0x7202
	saltClass  = 0x7303
	saltFrac   = 0x7404
	saltMix    = 0x7505
)

// warmupBase offsets warm-up indexes far past any timed index, so the
// cold generators never hand the warm-up a key the timed phase uses.
const warmupBase = 1 << 38

func planHot(seed uint64) *workload {
	pop := hotPopulation(hotPopulationSeed, 512)
	z := newZipf(len(pop), 1.0)
	gen := func(salt uint64) func(uint64) request {
		return func(i uint64) request { return hotDraw(pop, z, stream(seed, salt, i)) }
	}
	w := &workload{
		name:  "plan-hot",
		conns: 1,
		hot:   primeSet(pop),
		next:  gen(saltTimed),
	}
	w.warmup = batch(gen(saltWarmup), 0, 4000)
	return w
}

// coldPlanClass is one (family, base parameters) cell of the cold plan
// distribution; the fractional offset goes on base.
type coldPlanClass struct {
	spec serve.PlanSpec
}

var coldPlanClasses = []coldPlanClass{
	{serve.PlanSpec{Life: "uniform", Lifespan: 600, C: 1}},
	{serve.PlanSpec{Life: "uniform", Lifespan: 1500, C: 1}},
	{serve.PlanSpec{Life: "uniform", Lifespan: 4000, C: 2}},
	{serve.PlanSpec{Life: "poly", Lifespan: 800, D: 2, C: 1}},
	{serve.PlanSpec{Life: "poly", Lifespan: 1500, D: 3, C: 1}},
	{serve.PlanSpec{Life: "geomdec", HalfLife: 16, C: 1}},
	{serve.PlanSpec{Life: "geomdec", HalfLife: 24, C: 2}},
	{serve.PlanSpec{Life: "geominc", Lifespan: 300, C: 1}},
	{serve.PlanSpec{Life: "geominc", Lifespan: 2000, C: 1}},
}

func coldPlan(classes []coldPlanClass, seed, i uint64) request {
	cl := classes[blockClass(seed, saltClass, i, len(classes))]
	spec := cl.spec
	frac := coldFraction(seed^saltFrac, i)
	if spec.Life == "geomdec" {
		spec.HalfLife += frac
	} else {
		spec.Lifespan += frac
	}
	return planRequest(spec, true)
}

func planCold(seed uint64) *workload {
	w := &workload{
		name:  "plan-cold",
		conns: 2,
		next:  func(i uint64) request { return coldPlan(coldPlanClasses, seed, i) },
	}
	// The warm-up first fills the 4096-entry plan cache with cheap cold
	// plans, so every round's timed phase runs at the steady state of a
	// long-lived server: a full cache that evicts on every Put.
	filler := func(i uint64) request { return coldPlan(cacheFillerClasses, seed, i) }
	w.warmup = append(batch(filler, warmupBase, 4096), batch(w.next, warmupBase+4096, 120)...)
	return w
}

// cacheFillerClasses are the cheapest cold plans (about 0.4 ms each).
var cacheFillerClasses = []coldPlanClass{
	{serve.PlanSpec{Life: "geominc", Lifespan: 500, C: 1}},
	{serve.PlanSpec{Life: "geominc", Lifespan: 3000, C: 1}},
}

// estimateClass is one cost-matched cell of the cold estimate mix.
type estimateClass struct {
	spec serve.EstimateSpec
}

func est(life string, lifespan, halflife float64, d int, policy string, episodes int) estimateClass {
	return estimateClass{serve.EstimateSpec{
		PlanSpec: serve.PlanSpec{Life: life, Lifespan: lifespan, HalfLife: halflife, D: d, C: 1},
		Policy:   policy,
		Episodes: episodes,
	}}
}

// estimateClasses is a block of 19: the eight guideline / fixed-chunk
// cells twice each at roughly 5 ms of planning and Monte-Carlo on one
// core, two progressive cells at 3 episodes, cost-matched (the family
// whose re-planning cost varies least from episode to episode), and one
// large guideline estimate at three times the episodes. The large one
// is 1 request in 19, so p99 falls inside its latency distribution and
// tracks Monte-Carlo work rather than how often the machine stalls.
var estimateClasses = func() []estimateClass {
	base := []estimateClass{
		est("uniform", 1000, 0, 0, "guideline", 2100),
		est("uniform", 1000, 0, 0, "fixed:20", 2000),
		est("poly", 1000, 0, 2, "guideline", 700),
		est("poly", 1000, 0, 2, "fixed:25", 1200),
		est("geomdec", 0, 12, 0, "guideline", 300),
		est("geomdec", 0, 32, 0, "fixed:8", 1150),
		est("geominc", 1000, 0, 0, "guideline", 1450),
		est("geominc", 1000, 0, 0, "fixed:50", 1300),
	}
	out := append(append([]estimateClass{}, base...), base...)
	return append(out,
		est("geominc", 1000, 0, 0, "progressive", 3),
		est("geominc", 300, 0, 0, "progressive", 3),
		est("uniform", 1000, 0, 0, "guideline", 6300),
	)
}()

func estimateCold(seed uint64) *workload {
	withSeed := func(spec serve.EstimateSpec, i uint64) request {
		spec.Seed = mix(seed^saltTimed) ^ mix(i) // fresh per index: every request runs Monte-Carlo
		if spec.Seed == 0 {
			spec.Seed = 1<<63 | i
		}
		return estimateRequest(spec, true)
	}
	gen := func(i uint64) request {
		return withSeed(estimateClasses[blockClass(seed, saltClass, i, len(estimateClasses))].spec, i)
	}
	w := &workload{
		name:  "estimate-cold",
		conns: 1,
		next:  gen,
	}
	// The warm-up fills the 512-entry estimate cache with cheap cold
	// estimates first, so the timed phase evicts from its first request.
	filler := func(i uint64) request { return withSeed(cacheFillerEstimate, i) }
	w.warmup = append(batch(filler, warmupBase, 512), batch(gen, warmupBase+512, 72)...)
	return w
}

// cacheFillerEstimate costs about 0.1 ms.
var cacheFillerEstimate = serve.EstimateSpec{
	PlanSpec: serve.PlanSpec{Life: "uniform", Lifespan: 1000, C: 1},
	Policy:   "fixed:20",
	Episodes: 50,
}

// gateSweepSize is the seed sweep's key count: more than one replica's
// 512-entry estimate cache, less than the three replicas' 1536.
const gateSweepSize = 1000

// sweepRequest is the s-th key of the seed sweep (keys differ only in
// seed). The sweep is fixed across runs, so ring balance over it is a
// property of the code, not of the workload seed.
func sweepRequest(s int) request {
	return estimateRequest(serve.EstimateSpec{
		PlanSpec: serve.PlanSpec{Life: "uniform", Lifespan: 600, C: 1},
		Policy:   "fixed:20",
		Episodes: 100,
		Seed:     uint64(s + 1),
	}, false)
}

var gateColdClasses = []coldPlanClass{
	{serve.PlanSpec{Life: "uniform", Lifespan: 900, C: 1}},
	{serve.PlanSpec{Life: "geominc", Lifespan: 700, C: 1}},
}

// gate-mix block of 20: 12 hot plans, 7 sweep estimates, 1 cold plan.
const (
	gateBlock     = 20
	gateHotShare  = 12
	gateSweepEnds = 19
)

func gateMix(seed uint64) *workload {
	pop := hotPopulation(gatePopulationSeed, 128)
	z := newZipf(len(pop), 1.0)
	sweep := make([]request, gateSweepSize)
	for s := range sweep {
		sweep[s] = sweepRequest(s)
	}
	gen := func(salt uint64) func(uint64) request {
		return func(i uint64) request {
			src := stream(seed, salt, i)
			switch k := blockClass(seed, salt^saltMix, i, gateBlock); {
			case k < gateHotShare:
				return hotDraw(pop, z, src)
			case k < gateSweepEnds:
				return sweep[src.Intn(len(sweep))]
			default:
				return coldPlan(gateColdClasses, seed, i)
			}
		}
	}
	w := &workload{
		name:  "gate-mix",
		conns: 2,
		gate:  true,
		hot:   append(primeSet(pop), sweep...),
		next:  gen(saltTimed),
	}
	w.warmup = batch(gen(saltWarmup), warmupBase, 1000)
	return w
}

func batch(gen func(uint64) request, from uint64, n int) []request {
	out := make([]request, n)
	for k := range out {
		out[k] = gen(from + uint64(k))
	}
	return out
}
