package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// snapshot is one process's exposed counters at an instant.
type snapshot struct {
	series  map[string]float64 // /metrics, keyed by "name{labels}"
	mallocs uint64             // /debug/vars memstats.Mallocs
	numGC   uint64             // /debug/vars memstats.NumGC
	stat    procStat
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func get(url string) ([]byte, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, nil
}

// scrape reads /metrics first and /debug/vars last, so that between a
// scrape before and one after the timed phase the allocation count
// takes in only the requests and one /debug/vars answer.
func scrape(p *proc) (snapshot, error) {
	s := snapshot{series: map[string]float64{}}
	text, err := get("http://" + p.addr + "/metrics")
	if err != nil {
		return s, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(text)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s.series[line[:i]] = v
	}
	vars, err := get("http://" + p.addr + "/debug/vars")
	if err != nil {
		return s, err
	}
	var ev struct {
		Memstats struct {
			Mallocs uint64
			NumGC   uint32
		} `json:"memstats"`
	}
	if err := json.Unmarshal(vars, &ev); err != nil {
		return s, fmt.Errorf("decode /debug/vars of %s: %w", p.name, err)
	}
	s.mallocs, s.numGC = ev.Memstats.Mallocs, uint64(ev.Memstats.NumGC)
	s.stat, err = readProcStat(p.cmd.Process.Pid)
	return s, err
}

// scrapeAll snapshots every process of the topology, in order.
func scrapeAll(procs []*proc) ([]snapshot, error) {
	out := make([]snapshot, len(procs))
	for k, p := range procs {
		s, err := scrape(p)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", p.name, err)
		}
		out[k] = s
	}
	return out, nil
}

// seriesDelta is the change of one series between two scrapes, summed
// over the processes.
func seriesDelta(before, after []snapshot, name string) float64 {
	total := 0.0
	for k := range after {
		total += after[k].series[name] - before[k].series[name]
	}
	return total
}

// seriesSum sums the deltas of every series with the given base name
// (all label sets).
func seriesSum(before, after []snapshot, base string) float64 {
	total := 0.0
	for k := range after {
		for name, v := range after[k].series {
			if name == base || strings.HasPrefix(name, base+"{") {
				total += v - before[k].series[name]
			}
		}
	}
	return total
}
