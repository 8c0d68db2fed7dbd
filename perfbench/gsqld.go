package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one gsqld process the benchmark started.
type proc struct {
	cmd    *exec.Cmd
	url    string
	logf   *os.File
	exited chan struct{} // closed once the process has been reaped
}

// bootTimeout bounds one gsqld start (exec to healthy).
const bootTimeout = 60 * time.Second

// startGsqld execs gsqld on a fresh data dir seeded from csvDir,
// waits until /healthz answers and installs sources, and returns the
// process with the exec-to-installed time: one setup_s sample.
func startGsqld(bin, csvDir, dataDir string, sources map[string]string) (*proc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, 0, err
	}
	p := &proc{url: "http://127.0.0.1:" + strconv.Itoa(port), logf: logf, exited: make(chan struct{})}
	p.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-data", csvDir,
		"-data-dir", dataDir,
		"-log-level", "warn")
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, the kernel kills gsqld too.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("exec gsqld: %w", err)
	}
	go func() {
		_ = p.cmd.Wait() // a killed or crashed server shows in its log and the health check
		close(p.exited)
	}()
	if err := p.waitHealthy(start.Add(bootTimeout)); err != nil {
		p.stop()
		return nil, 0, err
	}
	hc := &http.Client{Timeout: bootTimeout}
	for name, src := range sources {
		resp, err := hc.Post(p.url+"/queries", "text/plain", strings.NewReader(src))
		if err != nil {
			p.stop()
			return nil, 0, fmt.Errorf("install %s: %w", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			p.stop()
			return nil, 0, fmt.Errorf("install %s: %d %s", name, resp.StatusCode, body)
		}
	}
	return p, time.Since(start), nil
}

func (p *proc) waitHealthy(deadline time.Time) error {
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("gsqld exited during start (log: %s)", p.logf.Name())
		default:
		}
		resp, err := hc.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("gsqld at %s not healthy (log: %s)", p.url, p.logf.Name())
}

// stop kills the process and waits for it to exit. The data dir is
// thrown away, so there is nothing to drain.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // fails only when it has already exited
	<-p.exited
	p.logf.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// runResponse is the part of gsqld's run response the benchmark reads:
// the answer and the engine counters.
type runResponse struct {
	Tables   map[string]json.RawMessage `json:"tables"`
	Printed  []json.RawMessage          `json:"printed"`
	Returned json.RawMessage            `json:"returned"`
	Stats    struct {
		CountCacheMisses int64 `json:"count_cache_misses"`
	} `json:"stats"`
}

// answer is the comparable part of a run response.
func (r *runResponse) answer() string {
	b, _ := json.Marshal(struct {
		Tables   map[string]json.RawMessage `json:"tables"`
		Printed  []json.RawMessage          `json:"printed"`
		Returned json.RawMessage            `json:"returned"`
	}{r.Tables, r.Printed, r.Returned})
	return string(b)
}

// runQuery posts one run request and decodes the answer.
func runQuery(hc *http.Client, base, name string, params map[string]any) (*runResponse, error) {
	body, err := json.Marshal(map[string]any{"params": params})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest("POST", base+"/queries/"+name+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("run %s: %d %s", name, resp.StatusCode, rb)
	}
	var out runResponse
	if err := json.Unmarshal(rb, &out); err != nil {
		return nil, fmt.Errorf("run %s: decoding response: %w", name, err)
	}
	return &out, nil
}
