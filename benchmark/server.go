package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// requestTimeout bounds every HTTP request; a timeout is a failed operation.
const requestTimeout = 90 * time.Second

// server is one fsaiserve child process on a loopback port the kernel picked.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	done   chan struct{} // closed when the stderr reader saw EOF
}

// live tracks running servers so signal and panic paths can kill them.
var live struct {
	mu   sync.Mutex
	srvs map[*server]bool
}

// killAll kills every live server's process group: the server and any rank
// workers it spawned for a tcp solve. For the signal and panic paths, which
// exit right after; the normal path is stop.
func killAll() {
	live.mu.Lock()
	defer live.mu.Unlock()
	for s := range live.srvs {
		_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL) // best effort on the way out
	}
}

// startServer spawns bin on 127.0.0.1:0 in its own process group and returns
// once the server has logged its bound address.
func startServer(bin string, args []string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{
		cmd:    cmd,
		client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		done:   make(chan struct{}),
	}
	live.mu.Lock()
	if live.srvs == nil {
		live.srvs = make(map[*server]bool)
	}
	live.srvs[s] = true
	live.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
				continue
			}
			if !strings.Contains(line, "fsaiserve: ") { // lifecycle lines are expected; anything else is news
				fmt.Fprintln(os.Stderr, "fsaiserve:", line)
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not report its address within 20s", bin)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s/healthz not ok within 20s (%v)", s.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, escalates to SIGKILL on the whole
// process group after 10 s, and returns once the process has been reaped.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine; Wait below reports it
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
	}
	_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL) // reaps stragglers; ESRCH when all are gone
	<-s.done
	_ = s.cmd.Wait() // exit status of a stopped server carries no information
	live.mu.Lock()
	delete(live.srvs, s)
	live.mu.Unlock()
}

// rssPeakMB reads the server's peak resident set (VmHWM) from /proc.
func (s *server) rssPeakMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// post sends one request and reads the whole body; d is the client-observed
// latency from before the request is written to after the last body byte.
func (s *server) post(path, contentType string, body []byte) (status int, out []byte, d time.Duration, err error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	out, err = io.ReadAll(resp.Body)
	d = time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, out, d, err
}

// serverMetrics is the part of GET /metrics the harness reads.
type serverMetrics struct {
	Jobs struct {
		Completed int64 `json:"completed"`
		Rejected  int64 `json:"rejected"`
	} `json:"jobs"`
	Cache struct {
		Prepared struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
		} `json:"prepared"`
	} `json:"cache"`
	Solve struct {
		IntraNodeMessages int64 `json:"intra_node_messages_total"`
		InterNodeMessages int64 `json:"inter_node_messages_total"`
	} `json:"solve"`
	Batch struct {
		BatchesTotal int64 `json:"batches_total"`
		Occupancy    struct {
			SumJobs int64 `json:"sum_jobs"`
		} `json:"occupancy"`
	} `json:"batch"`
}

func (s *server) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	return m, nil
}
