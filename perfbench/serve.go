package main

import (
	"bufio"
	"context"
	"encoding/json"
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

// server is one child process: an lcmd or lcmgate started from the
// binaries built from the commit under test.
type server struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// children tracks every process the benchmark starts, so that success,
// failure and interrupt all reap them.
var children struct {
	sync.Mutex
	all []*server
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs bin with args (plus -addr on port), logs its output
// to logPath, and returns once the process is running.
func startServer(name, bin string, port int, args []string, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the child if the benchmark itself dies, so no
	// server outlives the run even on SIGKILL.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.all = append(children.all, s)
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark stops it
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200 and returns the time
// since started.
func waitReady(ctx context.Context, s *server, started time.Time) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return 0, fmt.Errorf("%s exited during start-up", s.name)
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/readyz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(started), nil
			}
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		time.Sleep(250 * time.Microsecond)
	}
	return 0, fmt.Errorf("%s not ready within 30s", s.name)
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited within grace, and waits until it has.
func (s *server) stop(grace time.Duration) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(grace):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// reapAll stops every child still running and waits for each.
func reapAll() {
	children.Lock()
	all := children.all
	children.all = nil
	children.Unlock()
	var wg sync.WaitGroup
	for _, s := range all {
		wg.Add(1)
		go func(s *server) {
			defer wg.Done()
			s.stop(5 * time.Second)
		}(s)
	}
	wg.Wait()
}

// procStat is a process's CPU time and peak resident memory.
type procStat struct {
	cpu   time.Duration // user + sys
	hwmKB int64         // VmHWM
}

// clockTick is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 10 * time.Millisecond

func readProcStat(pid int) (procStat, error) {
	var ps procStat
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	ps.cpu = time.Duration(ut+st) * clockTick

	sf, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return ps, err
	}
	defer sf.Close()
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			ps.hwmKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return ps, sc.Err()
}

// fleetStat sums readProcStat over servers.
func fleetStat(servers []*server) (procStat, error) {
	var tot procStat
	for _, s := range servers {
		ps, err := readProcStat(s.cmd.Process.Pid)
		if err != nil {
			return tot, err
		}
		tot.cpu += ps.cpu
		tot.hwmKB += ps.hwmKB
	}
	return tot, nil
}

// healthz fetches a server's /healthz counters.
func healthz(ctx context.Context, hc *http.Client, s *server) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("%s /healthz: %w", s.name, err)
	}
	return m, nil
}

// counters is a set of numeric /healthz fields, summed over servers.
type counters map[string]float64

// sumHealthz reads /healthz of every server and sums its numeric
// top-level fields.
func sumHealthz(ctx context.Context, hc *http.Client, servers []*server) (counters, error) {
	c := counters{}
	for _, s := range servers {
		m, err := healthz(ctx, hc, s)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			if f, ok := v.(float64); ok {
				c[k] += f
			}
		}
	}
	return c, nil
}

// delta returns after[k] − before[k] and whether the field exists.
func delta(before, after counters, k string) (float64, bool) {
	a, ok := after[k]
	return a - before[k], ok
}
