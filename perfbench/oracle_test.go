package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// inProcess serves the real handlers on a loopback listener.
func inProcess(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{Registry: obs.NewRegistry()})
	mux := http.NewServeMux()
	s.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return ts
}

func answerFor(t *testing.T, ts *httptest.Server, r request) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// corrupt rewrites one numeric field of a JSON body.
func corrupt(t *testing.T, body []byte, path []string, delta float64) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	obj := m
	for _, p := range path[:len(path)-1] {
		obj = obj[p].(map[string]any)
	}
	last := path[len(path)-1]
	obj[last] = obj[last].(float64) + delta
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOracleAcceptsRightAndCatchesCorruptedAnswers(t *testing.T) {
	ts := inProcess(t)
	o := newOracle()
	plan := coldPlan(coldPlanClasses, 5, 0)
	est, err := newWorkload("estimate-cold", 5)
	if err != nil {
		t.Fatal(err)
	}
	var guideline request
	for i := uint64(0); ; i++ {
		if r := est.next(i); strings.Contains(string(r.body), `"guideline"`) {
			guideline = r
			break
		}
	}
	cases := []struct {
		req  request
		path []string
	}{
		{plan, []string{"t0"}},
		{plan, []string{"expected_work"}},
		{plan, []string{"periods_total"}},
		{guideline, []string{"work", "mean"}},
		{guideline, []string{"lost", "stderr"}},
		{guideline, []string{"analytic_expected_work"}},
	}
	for _, c := range cases {
		body := answerFor(t, ts, c.req)
		if _, err := o.check(c.req, body); err != nil {
			t.Fatalf("right answer rejected: %v", err)
		}
		bad := corrupt(t, body, c.path, 1)
		if _, err := o.check(c.req, bad); err == nil {
			t.Errorf("%s: answer with %v off by one was accepted", c.req.key, c.path)
		}
	}
	if _, err := o.check(plan, []byte(`{"key":`)); err == nil {
		t.Error("truncated body was accepted")
	}
}

// TestDriveFindsNoFaultOnRightServer drives a short closed loop against
// the in-process handlers and checks the loop's own bookkeeping: every
// request answered, every distinct answer verified, no conflicts.
func TestDriveFindsNoFaultOnRightServer(t *testing.T) {
	ts := inProcess(t)
	w, err := newWorkload("plan-hot", 2)
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(ts.URL, "http://")
	if err := sendAll(addr, 2, w.hot[:64]); err != nil {
		t.Fatal(err)
	}
	var next atomic.Uint64
	ph, err := drive(addr, 2, w.next, &next, 300*time.Millisecond, true, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted == 0 || ph.failed != 0 || ph.conflicts != 0 {
		t.Fatalf("attempted %d, failed %d, conflicts %d", ph.attempted, ph.failed, ph.conflicts)
	}
	if len(ph.unbilled) == 0 || len(ph.spans) != 4*ph.attempted {
		t.Errorf("traced drive recorded %d spans and %d Server-Timing totals for %d requests", len(ph.spans), len(ph.unbilled), ph.attempted)
	}
	v := newOracle().verify(ph.answers, w.next, 2)
	if v.wrong != 0 || v.checked != len(ph.answers) {
		t.Fatalf("oracle: %+v over %d answers", v, len(ph.answers))
	}
}

// TestE6PoolsEachScenario: estimates scattered about E(S;p) pass, even
// one whose own sample saw no spread, and a scenario whose estimates sit
// consistently off E(S;p) fails with all its responses.
func TestE6PoolsEachScenario(t *testing.T) {
	scenario := func(key string, bias float64) []*e6Sample {
		var out []*e6Sample
		for k := 0; k < 40; k++ {
			mean := 100 + bias + float64(k%5-2)*0.15 // scatter of 5/sqrt(1000)
			out = append(out, &e6Sample{key: key, analytic: 100, mean: mean, variance: 25, n: 1000, count: 2})
		}
		out[0].variance = 1e-6
		out[1].mean = 101 // one estimate 6 of its standard errors off
		return out
	}
	var v verdict
	checkE6(scenario("fair", 0), &v)
	if v.wrong != 0 {
		t.Fatalf("a fair scenario was flagged: %v", v.msgs)
	}
	checkE6(scenario("biased", 0.2), &v) // 8 pooled standard errors
	if v.wrong != 80 {
		t.Fatalf("a biased scenario flagged %d responses, want all 80: %v", v.wrong, v.msgs)
	}
}

func TestServerTimingTotal(t *testing.T) {
	d, ok := serverTimingTotal("cache;dur=0.008;desc=miss, queue;dur=0.016, compute;dur=1.212;alloc=563, total;dur=1.395")
	if !ok || d != 1395*time.Microsecond {
		t.Fatalf("got %v %v", d, ok)
	}
	if _, ok := serverTimingTotal("cache;dur=1"); ok {
		t.Fatal("found a total in a header without one")
	}
}

func TestCoveredClipsAndMergesChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100},
		{start: 10, end: 30, parent: 0},
		{start: 20, end: 50, parent: 0},
		{start: 90, end: 130, parent: 0},
	}
	if got := covered(spans, []int{1, 2, 3}, spans[0]); got != 50 {
		t.Fatalf("covered %v, want 50", got)
	}
}
