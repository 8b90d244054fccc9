package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/rustprobed from the checkout at root.
func buildDaemon(root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "rustprobed")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rustprobed")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build rustprobed: %w", err)
	}
	return bin, nil
}

// daemon is one running rustprobed child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	exited chan struct{}
	log    *os.File
}

// startDaemon launches rustprobed on a free loopback port with nproc
// workers and the given store directory, every other flag at its
// default, and waits until /healthz answers.
func startDaemon(bin, storeDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(runtime.NumCPU()), "-store-dir", storeDir)
	cmd.Stdout = logf
	cmd.Stderr = logf
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "RUSTPROBE_GRAPH_CHECK=") {
			env = append(env, kv)
		}
	}
	cmd.Env = env
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start rustprobed: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitHealthy(20 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("rustprobed exited during start-up (see %s)", d.log.Name())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("rustprobed not healthy after %s (see %s)", limit, d.log.Name())
}

// stop sends SIGTERM (the daemon drains and flushes its write-behind
// store puts), escalates to SIGKILL after 15 s, and returns once the
// process has exited.
func (d *daemon) stop() {
	defer d.log.Close()
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuMS is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of USER_HZ = 100 on Linux).
func (d *daemon) cpuMS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) * 10, nil
}

// peakRSSMB is the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// daemonStats is the part of GET /stats the per-layer engine metrics use.
type daemonStats struct {
	JobsSubmitted  uint64  `json:"jobs_submitted"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	StoreHits      uint64  `json:"store_hits"`
	StoreMisses    uint64  `json:"store_misses"`
	QueueRejected  uint64  `json:"queue_rejected"`
	DedupHits      uint64  `json:"dedup_hits"`
	AnalyzeMSTotal float64 `json:"analyze_ms_total"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := http.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.Unmarshal(body, &st)
}
