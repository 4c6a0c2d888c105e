package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fixed listen ports. The ring hashes replica URLs, so gate-mix must see
// the same URLs on every run; the direct workloads use the first port.
const basePort = 39711

func replicaURL(k int) string { return fmt.Sprintf("http://127.0.0.1:%d", basePort+k) }

const gateAddr = "127.0.0.1:39714"

// gateReplicas is the fixed replica set behind the gate.
var gateReplicas = []string{replicaURL(0), replicaURL(1), replicaURL(2)}

// proc is one server process the benchmark started.
type proc struct {
	name string
	addr string // host:port it serves on
	cmd  *exec.Cmd
	out  *tailBuffer
	done chan struct{} // closed once Wait has returned
}

// tailBuffer keeps the last few KiB a child wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf); n > 8<<10 {
		t.buf = append(t.buf[:0], t.buf[n-8<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// procSet owns every child process of the run; kill stops and reaps
// them all, and is safe to call from any exit path, more than once.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

func (ps *procSet) start(bin, name, addr string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	out := &tailBuffer{}
	cmd.Stdout, cmd.Stderr = out, out
	// A child outlives nothing: if the benchmark dies, the kernel kills
	// it, so no orphan keeps a core busy for the next run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, out: out, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries nothing
		close(p.done)
	}()
	ps.procs = append(ps.procs, p)
	return p, nil
}

// kill SIGKILLs every live child and waits until each has exited and
// been reaped. It holds the set's lock throughout, so a second caller
// (the signal handler racing an error path) returns only once the
// children are gone.
func (ps *procSet) kill() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.procs {
		_ = p.cmd.Process.Kill() // fails only when it has already exited
	}
	for _, p := range ps.procs {
		<-p.done
	}
	ps.procs = nil
}

// waitReady polls /v1/healthz until it answers 200.
func waitReady(p *proc, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.out)
		default:
		}
		resp, err := client.Get("http://" + p.addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v:\n%s", p.name, timeout, p.out)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// topology is the set of servers one workload runs against.
type topology struct {
	target   string  // address the client drives
	replicas []*proc // csserve processes
	gate     *proc   // nil for direct workloads
}

func (t *topology) all() []*proc {
	if t.gate == nil {
		return t.replicas
	}
	return append(append([]*proc{}, t.replicas...), t.gate)
}

// boot starts the workload's servers, one at a time, each ready before
// the next starts: a replica's warm start then meets peers that either
// refuse the connection or answer, never a bound port that is not yet
// serving.
func boot(ps *procSet, bin string, gate bool) (*topology, error) {
	serve := filepath.Join(bin, "csserve")
	if !gate {
		addr := strings.TrimPrefix(replicaURL(0), "http://")
		p, err := ps.start(serve, "csserve", addr, "-addr", addr)
		if err != nil {
			return nil, err
		}
		if err := waitReady(p, 10*time.Second); err != nil {
			return nil, err
		}
		return &topology{target: addr, replicas: []*proc{p}}, nil
	}
	t := &topology{target: gateAddr}
	for k, self := range gateReplicas {
		addr := strings.TrimPrefix(self, "http://")
		p, err := ps.start(serve, "csserve-"+strconv.Itoa(k), addr,
			"-addr", addr, "-self", self, "-peers", strings.Join(gateReplicas, ","))
		if err != nil {
			return nil, err
		}
		if err := waitReady(p, 10*time.Second); err != nil {
			return nil, err
		}
		t.replicas = append(t.replicas, p)
	}
	g, err := ps.start(filepath.Join(bin, "csgate"), "csgate", gateAddr,
		"-addr", gateAddr, "-replicas", strings.Join(gateReplicas, ","))
	if err != nil {
		return nil, err
	}
	if err := waitReady(g, 10*time.Second); err != nil {
		return nil, err
	}
	t.gate = g
	return t, nil
}

// checkHost refuses to run when a csserve or csgate is already alive or
// one of the benchmark's ports is taken: on a small machine a stray
// server from an earlier run silently takes a core.
func checkHost() error {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return fmt.Errorf("read /proc: %w", err)
	}
	self := os.Getpid()
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == self {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // the process exited while we looked
		}
		// "pid (comm) state ...": a zombie holds no core and no port.
		open, end := bytes.IndexByte(stat, '('), bytes.LastIndexByte(stat, ')')
		if open < 0 || end < open || end+2 >= len(stat) || stat[end+2] == 'Z' {
			continue
		}
		switch name := string(stat[open+1 : end]); name {
		case "csserve", "csgate":
			return fmt.Errorf("a stray %s is running (pid %d); stop it first", name, pid)
		}
	}
	addrs := []string{gateAddr}
	for _, u := range gateReplicas {
		addrs = append(addrs, strings.TrimPrefix(u, "http://"))
	}
	for _, a := range addrs {
		l, err := net.Listen("tcp", a)
		if err != nil {
			return fmt.Errorf("port %s is taken: %w", a, err)
		}
		_ = l.Close() // only probing that the port is free
	}
	return nil
}

// procStat is what /proc says about one child: CPU time and peak RSS.
type procStat struct {
	cpu    time.Duration // utime + stime
	hwmKiB int64         // VmHWM
}

// clockTick is USER_HZ; Linux reports /proc/<pid>/stat times in it and
// fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

func readProcStat(pid int) (procStat, error) {
	var st procStat
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, so 12 and 13 of the rest.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return st, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return st, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return st, errors.New("bad cpu fields in /proc stat")
	}
	st.cpu = time.Duration(ut+stt) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				st.hwmKiB, _ = strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return st, nil
}
