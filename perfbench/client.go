package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven by hand: the
// benchmark writes the request bytes itself and parses the response
// with net/http's reader, so the client's own cost per request stays
// small and the "written" and "first byte" instants are exact.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  bytes.Buffer
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, nc: nc, br: bufio.NewReaderSize(nc, 16<<10), bw: bufio.NewWriterSize(nc, 4<<10)}, nil
}

func (c *conn) close() {
	if c.nc != nil {
		_ = c.nc.Close() // the connection is being discarded
		c.nc = nil
	}
}

// timing holds the client-side instants of one call, as offsets from
// its start.
type timing struct {
	written, firstByte, lastByte time.Duration
}

// result is one answered call. body aliases the connection's buffer and
// is valid until the next call on the same connection.
type result struct {
	status       int
	body         []byte
	serverTiming string
	t            timing
}

// do sends one request and reads the whole answer. The connection is
// reopened when the server closes it or a transport error occurs.
func (c *conn) do(r request, traced bool) (result, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return result{}, err
		}
		c.nc = nc
		c.br.Reset(nc)
		c.bw.Reset(nc)
	}
	start := time.Now()
	c.bw.WriteString("POST ")
	c.bw.WriteString(r.path())
	c.bw.WriteString(" HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: ")
	c.bw.WriteString(strconv.Itoa(len(r.body)))
	c.bw.WriteString("\r\n\r\n")
	c.bw.Write(r.body)
	if err := c.bw.Flush(); err != nil {
		c.close()
		return result{}, err
	}
	var res result
	if traced {
		res.t.written = time.Since(start)
		if _, err := c.br.Peek(1); err != nil {
			c.close()
			return result{}, err
		}
		res.t.firstByte = time.Since(start)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return result{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // fully read above; Close only releases the reader
	if err != nil {
		c.close()
		return result{}, err
	}
	res.t.lastByte = time.Since(start)
	res.status = resp.StatusCode
	res.body = c.buf.Bytes()
	if traced {
		res.serverTiming = resp.Header.Get("Server-Timing")
	}
	if resp.Close {
		c.close()
	}
	return res, nil
}

// answer is the first body seen for a key plus a hash of its answer
// part; later bodies for the key must hash the same.
type answer struct {
	cold  bool
	body  []byte
	sum   uint64
	count int
	// index is the sequence index that first produced the answer.
	index uint64
}

// answerPart cuts the per-response fields (cached, coalesced,
// peer_filled, elapsed_ms) off a plan or estimate body; what remains is
// the answer itself, identical on every response for one key.
func answerPart(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"cached":`)); i >= 0 {
		return body[:i]
	}
	return body
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash writes never fail
	return h.Sum64()
}

// sample is one completed call of the timed phase.
type sample struct {
	index   uint64
	end     time.Duration // since the phase start
	latency time.Duration
	ok      bool
}

// span is one client- or replay-side interval. Spans of one request
// share id; parent is the index of the enclosing span, -1 at the root.
type span struct {
	id         uint64
	name       string
	parent     int
	start, end time.Duration // since the run's clock origin
	n          int           // calls the span covers
}

// appendSpans appends src to dst, rebasing src's parent indexes.
func appendSpans(dst, src []span) []span {
	base := len(dst)
	for _, s := range src {
		if s.parent >= 0 {
			s.parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// connLog is what one connection records; connections never share one.
type connLog struct {
	samples []sample
	answers map[string]*answer
	// conflicts counts responses whose answer differs from the first
	// one seen for the same key on this connection.
	conflicts int
	// coldRepeats counts answers for a cold key seen more than once.
	coldRepeats int
	transport   int
	non200      int
	spans       []span
	unbilled    []time.Duration
	lastErr     string
}

// phase is one closed-loop drive of the servers.
type phase struct {
	attempted int
	failed    int // transport + non-200, before the answer oracle
	conflicts int
	// coldRepeats counts cold keys the generator sent more than once.
	coldRepeats int
	samples     []sample
	answers     map[string]*answer
	spans       []span
	unbilled    []time.Duration
	elapsed     time.Duration
	firstIdx    uint64
	nextIdx     uint64
	errs        []string
}

// drive runs a closed loop of conns connections against addr for d,
// taking request indexes from *next in order. Every connection waits
// for its answer before sending again. origin is the clock origin for
// spans.
func drive(addr string, conns int, gen func(uint64) request, next *atomic.Uint64, d time.Duration, traced bool, origin time.Time) (*phase, error) {
	logs := make([]*connLog, conns)
	cs := make([]*conn, conns)
	for k := range cs {
		c, err := dial(addr)
		if err != nil {
			for _, o := range cs[:k] {
				o.close()
			}
			return nil, err
		}
		cs[k] = c
		logs[k] = &connLog{answers: map[string]*answer{}}
	}
	first := next.Load()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := range cs {
		wg.Add(1)
		go func(c *conn, lg *connLog) {
			defer wg.Done()
			defer c.close()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				r := gen(i)
				t0 := time.Now()
				res, err := c.do(r, traced)
				if err != nil {
					lg.transport++
					lg.lastErr = err.Error()
					lg.samples = append(lg.samples, sample{index: i, end: time.Since(start), latency: time.Since(t0)})
					continue
				}
				s := sample{index: i, end: time.Since(start), latency: res.t.lastByte, ok: res.status == http.StatusOK}
				lg.samples = append(lg.samples, s)
				if !s.ok {
					lg.non200++
					lg.lastErr = fmt.Sprintf("%s %s: HTTP %d: %s", r.route, r.body, res.status, strings.TrimSpace(string(res.body)))
					continue
				}
				lg.record(r, i, res.body)
				if traced {
					lg.trace(i, t0.Sub(origin), res)
				}
			}
		}(cs[k], logs[k])
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start), firstIdx: first, nextIdx: next.Load(), answers: map[string]*answer{}}
	for _, lg := range logs {
		p.samples = append(p.samples, lg.samples...)
		p.failed += lg.transport + lg.non200
		p.conflicts += lg.conflicts
		p.coldRepeats += lg.coldRepeats
		p.spans = appendSpans(p.spans, lg.spans)
		p.unbilled = append(p.unbilled, lg.unbilled...)
		if lg.lastErr != "" {
			p.errs = append(p.errs, lg.lastErr)
		}
		for key, a := range lg.answers {
			prev, ok := p.answers[key]
			if !ok {
				p.answers[key] = a
				continue
			}
			if prev.sum != a.sum {
				p.conflicts += a.count
			}
			if a.cold {
				p.coldRepeats++ // a cold key answered on two connections
			}
			if a.index < prev.index {
				a.count += prev.count
				p.answers[key] = a
			} else {
				prev.count += a.count
			}
		}
	}
	p.attempted = len(p.samples)
	return p, nil
}

// record keeps the first body per key and checks every later one
// against it.
func (lg *connLog) record(r request, i uint64, body []byte) {
	part := answerPart(body)
	sum := hashBytes(part)
	if a, ok := lg.answers[r.key]; ok {
		a.count++
		if a.sum != sum {
			lg.conflicts++
		}
		if r.cold {
			lg.coldRepeats++
		}
		return
	}
	lg.answers[r.key] = &answer{cold: r.cold, body: append([]byte(nil), body...), sum: sum, count: 1, index: i}
}

// trace records the call's client spans: the request, and inside it the
// write, the wait for the first byte, and the read of the rest.
func (lg *connLog) trace(i uint64, at time.Duration, res result) {
	root := len(lg.spans)
	lg.spans = append(lg.spans,
		span{id: i, name: "client.request", parent: -1, start: at, end: at + res.t.lastByte, n: 1},
		span{id: i, name: "client.write", parent: root, start: at, end: at + res.t.written, n: 1},
		span{id: i, name: "client.wait", parent: root, start: at + res.t.written, end: at + res.t.firstByte, n: 1},
		span{id: i, name: "client.read", parent: root, start: at + res.t.firstByte, end: at + res.t.lastByte, n: 1},
	)
	if total, ok := serverTimingTotal(res.serverTiming); ok {
		lg.unbilled = append(lg.unbilled, res.t.lastByte-total)
	}
}

// serverTimingTotal extracts "total;dur=<ms>" from a Server-Timing
// header.
func serverTimingTotal(h string) (time.Duration, bool) {
	for _, part := range strings.Split(h, ",") {
		part = strings.TrimSpace(part)
		if !strings.HasPrefix(part, "total;") {
			continue
		}
		for _, p := range strings.Split(part, ";")[1:] {
			if v, ok := strings.CutPrefix(p, "dur="); ok {
				ms, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return 0, false
				}
				return time.Duration(ms * float64(time.Millisecond)), true
			}
		}
	}
	return 0, false
}

// sendAll sends reqs over conns connections in order and fails on the
// first non-200 answer; set-up uses it to prime and warm up.
func sendAll(addr string, conns int, reqs []request) error {
	var next atomic.Uint64
	errs := make(chan error, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.close()
			for {
				i := next.Add(1) - 1
				if i >= uint64(len(reqs)) {
					return
				}
				res, err := c.do(reqs[i], false)
				if err != nil {
					errs <- err
					return
				}
				if res.status != http.StatusOK {
					errs <- fmt.Errorf("set-up %s %s: HTTP %d: %s", reqs[i].route, reqs[i].body, res.status, strings.TrimSpace(string(res.body)))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}
