package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/serve"
	"repro/internal/stats"
)

// zMax bounds |analytic E(S;p) - Monte-Carlo mean| in standard errors
// for guideline estimates (the paper's E6 check). The test is made once
// per scenario, on the mean and variance pooled over every estimate of
// that scenario in the run. One estimate alone is no test: for geominc
// about one episode in 10^4 earns nothing and carries most of the
// variance, so a thousand-episode estimate sees zero, one or two such
// episodes and its mean lands several of its standard errors away about
// once in a hundred, while the exact band check already pins every
// single answer to the in-process recomputation.
const zMax = 6.0

// e6Sample is one guideline estimate's Monte-Carlo work band.
type e6Sample struct {
	key      string
	analytic float64
	mean     float64
	variance float64
	n        float64
	count    int // responses that carried this answer
}

// buildLife resolves a canonical spec the way the server does: fields
// canonicalization zeroed take the service defaults back.
func buildLife(s serve.PlanSpec) (lifefn.Life, error) {
	lifespan, halflife, d := s.Lifespan, s.HalfLife, s.D
	if lifespan == 0 {
		lifespan = 1000
	}
	if halflife == 0 {
		halflife = 32
	}
	if d == 0 {
		d = 2
	}
	return nowsim.BuildLife(s.Life, lifespan, halflife, d)
}

// same reports bit-identical floats: the service and the oracle run the
// same deterministic code, so a right answer matches to the last bit.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func band(sum stats.Summary) serve.Band {
	return serve.Band{
		Mean:   sum.Mean,
		StdErr: sum.StdErr,
		CI95Lo: sum.Mean - sum.CI95,
		CI95Hi: sum.Mean + sum.CI95,
		Min:    sum.Min,
		Max:    sum.Max,
		N:      sum.N,
	}
}

// oracle recomputes answers in-process. Guideline plans are memoized
// per scenario: every estimate of one scenario shares its schedule.
type oracle struct {
	mu       sync.Mutex
	policies map[string]nowsim.PolicySpec
}

func newOracle() *oracle { return &oracle{policies: map[string]nowsim.PolicySpec{}} }

func (o *oracle) policy(spec serve.EstimateSpec, life lifefn.Life) (nowsim.PolicySpec, error) {
	k := spec.PlanSpec.Key() + "|" + spec.Policy
	o.mu.Lock()
	pol, ok := o.policies[k]
	o.mu.Unlock()
	if ok {
		return pol, nil
	}
	pol, err := nowsim.ParsePolicy(spec.Policy, life, spec.C, core.PlanOptions{})
	if err != nil {
		return pol, err
	}
	o.mu.Lock()
	o.policies[k] = pol
	o.mu.Unlock()
	return pol, nil
}

// check verifies one response body against the model for the request
// that produced it. A nil error means the answer is right.
func (o *oracle) check(r request, body []byte) (*e6Sample, error) {
	switch r.route {
	case "plan":
		return nil, checkPlan(r, body)
	case "estimate":
		return o.checkEstimate(r, body)
	}
	return nil, fmt.Errorf("unknown route %q", r.route)
}

func checkPlan(r request, body []byte) error {
	var spec serve.PlanSpec
	if err := json.Unmarshal(r.body, &spec); err != nil {
		return err
	}
	norm, err := spec.Canonicalize()
	if err != nil {
		return err
	}
	var got serve.PlanResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable plan answer: %w", err)
	}
	if got.Key != norm.Key() {
		return fmt.Errorf("key %q, want %q", got.Key, norm.Key())
	}
	life, err := buildLife(norm)
	if err != nil {
		return err
	}
	pl, err := core.NewPlanner(life, norm.C, core.PlanOptions{})
	if err != nil {
		return err
	}
	want, err := pl.PlanBest()
	if err != nil {
		return err
	}
	switch {
	case !same(got.T0, want.T0):
		return fmt.Errorf("%s: t0 %v, want %v", got.Key, got.T0, want.T0)
	case got.PeriodsTotal != want.Schedule.Len():
		return fmt.Errorf("%s: periods_total %d, want %d", got.Key, got.PeriodsTotal, want.Schedule.Len())
	case !same(got.ExpectedWork, want.ExpectedWork):
		return fmt.Errorf("%s: expected_work %v, want %v", got.Key, got.ExpectedWork, want.ExpectedWork)
	case got.Bracket != [2]float64{want.Bracket.Lo, want.Bracket.Hi}:
		return fmt.Errorf("%s: bracket %v, want [%v %v]", got.Key, got.Bracket, want.Bracket.Lo, want.Bracket.Hi)
	}
	return nil
}

func (o *oracle) checkEstimate(r request, body []byte) (*e6Sample, error) {
	var spec serve.EstimateSpec
	if err := json.Unmarshal(r.body, &spec); err != nil {
		return nil, err
	}
	norm, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	var got serve.EstimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("undecodable estimate answer: %w", err)
	}
	if got.Key != norm.Key() {
		return nil, fmt.Errorf("key %q, want %q", got.Key, norm.Key())
	}
	life, err := buildLife(norm.PlanSpec)
	if err != nil {
		return nil, err
	}
	pol, err := o.policy(norm, life)
	if err != nil {
		return nil, err
	}
	res, err := nowsim.MonteCarloCtx(context.Background(), pol.Factory(), nowsim.LifeOwner{Life: life}, norm.C, norm.Episodes, norm.Seed, nowsim.Obs{})
	if err != nil {
		return nil, err
	}
	switch {
	case got.Episodes != res.Episodes:
		return nil, fmt.Errorf("%s: episodes %d, want %d", got.Key, got.Episodes, res.Episodes)
	case got.Work != band(res.Work):
		return nil, fmt.Errorf("%s: work band %+v, want %+v", got.Key, got.Work, band(res.Work))
	case got.Lost != band(res.Lost):
		return nil, fmt.Errorf("%s: lost band %+v, want %+v", got.Key, got.Lost, band(res.Lost))
	case got.Periods != band(res.Periods):
		return nil, fmt.Errorf("%s: periods band %+v, want %+v", got.Key, got.Periods, band(res.Periods))
	case !same(got.ReclaimedFraction, float64(res.Reclaimed)/float64(res.Episodes)):
		return nil, fmt.Errorf("%s: reclaimed_fraction %v, want %v", got.Key, got.ReclaimedFraction, float64(res.Reclaimed)/float64(res.Episodes))
	}
	if pol.Plan == nil {
		if got.AnalyticE != nil {
			return nil, fmt.Errorf("%s: analytic_expected_work on a %s estimate", got.Key, norm.Policy)
		}
		return nil, nil
	}
	if got.AnalyticE == nil || !same(*got.AnalyticE, pol.Plan.ExpectedWork) {
		return nil, fmt.Errorf("%s: analytic_expected_work %v, want %v", got.Key, got.AnalyticE, pol.Plan.ExpectedWork)
	}
	n := float64(got.Work.N)
	return &e6Sample{key: norm.PlanSpec.Key(), analytic: *got.AnalyticE, mean: got.Work.Mean, variance: got.Work.StdErr * got.Work.StdErr * n, n: n}, nil
}

// verdict is the oracle's finding over a phase's distinct answers.
type verdict struct {
	checked int
	wrong   int // responses carrying a wrong answer
	msgs    []string
}

// verify checks every distinct answer on workers goroutines. A wrong
// answer counts once per response that carried it.
func (o *oracle) verify(answers map[string]*answer, gen func(uint64) request, workers int) verdict {
	keys := make(chan string)
	type slot struct {
		v       verdict
		samples []*e6Sample
	}
	slots := make([]slot, workers)
	var wg sync.WaitGroup
	for w := range slots {
		wg.Add(1)
		//lint:allow goroutinecap the oracle's only shared state, its policy memo, is guarded by its mutex
		go func(sl *slot) {
			defer wg.Done()
			for k := range keys {
				a := answers[k]
				e6, err := o.check(gen(a.index), a.body)
				sl.v.checked++
				if e6 != nil {
					e6.count = a.count
					sl.samples = append(sl.samples, e6)
				}
				if err != nil {
					sl.v.wrong += a.count
					sl.v.msgs = append(sl.v.msgs, err.Error())
				}
			}
		}(&slots[w])
	}
	for _, k := range sortedKeys(answers) {
		keys <- k
	}
	close(keys)
	wg.Wait()
	var v verdict
	var samples []*e6Sample
	for _, sl := range slots {
		v.checked += sl.v.checked
		v.wrong += sl.v.wrong
		v.msgs = append(v.msgs, sl.v.msgs...)
		samples = append(samples, sl.samples...)
	}
	checkE6(samples, &v)
	if len(v.msgs) > 5 {
		v.msgs = v.msgs[:5]
	}
	return v
}

// checkE6 tests each scenario's pooled Monte-Carlo mean against its
// E(S;p); a scenario that fails counts every response it answered.
func checkE6(samples []*e6Sample, v *verdict) {
	byScenario := map[string][]*e6Sample{}
	for _, s := range samples {
		byScenario[s.key] = append(byScenario[s.key], s)
	}
	for _, key := range sortedKeys(byScenario) {
		group := byScenario[key]
		var n, sum float64
		count := 0
		for _, s := range group {
			n += s.n
			sum += s.n * s.mean
			count += s.count
		}
		grand := sum / n
		ss := 0.0
		for _, s := range group {
			ss += (s.n-1)*s.variance + s.n*(s.mean-grand)*(s.mean-grand)
		}
		se := math.Sqrt(ss/(n-1)) / math.Sqrt(n)
		if z := math.Abs(group[0].analytic-grand) / se; !(z <= zMax) {
			v.wrong += count
			v.msgs = append(v.msgs, fmt.Sprintf("%s: analytic E(S;p) %v is %.2f standard errors from the Monte-Carlo mean %v over %d estimates (limit %g)",
				key, group[0].analytic, z, grand, len(group), zMax))
		}
	}
}
