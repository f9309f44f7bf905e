package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one capman-serve (or null-daemon) process started by the
// benchmark. Its CPU time and peak RSS are read from /proc/<pid>, so the
// client's own cost never lands in daemon numbers.
type daemon struct {
	cmd     *exec.Cmd
	base    string    // http://127.0.0.1:port
	started time.Time // just before exec
	readyS  float64   // exec until the listening line was printed
	drained chan struct{}
}

// startDaemon execs bin with args plus a loopback listen address and
// waits for the listening line on its standard output ("... listening on
// host:port"). The rest of the output is drained and discarded so the
// daemon never blocks on a full pipe.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The daemon must not outlive the benchmark, even when the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = io.Discard
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	lines := bufio.NewReader(out)
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sent := false
		for {
			line, err := lines.ReadString('\n')
			if _, a, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case a := <-addr:
		if a == "" {
			d.stop()
			return nil, fmt.Errorf("%s: no listening address", bin)
		}
		d.readyS = time.Since(d.started).Seconds()
		d.base = "http://" + a
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s: not listening after 30s", bin)
	}
	return d, nil
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within ten seconds, and waits until it has.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.drained
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// cpuSeconds is the CPU time the daemon's threads have run so far, the
// sum of /proc/<pid>/task/<tid>/schedstat, which counts nanoseconds (utime
// and stime in /proc/<pid>/stat count whole 10 ms ticks, too coarse for a
// two-second round). A Go daemon keeps its threads for life, so no
// thread's time is lost to an exit.
func (d *daemon) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat")
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed schedstat %q", b)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// peakRSSMB is the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// promSample maps a series ("name" or `name{labels}`) to its value.
type promSample map[string]float64

// scrapeMetrics reads the daemon's /metrics in the Prometheus text
// format, dropping comments and OpenMetrics exemplars.
func scrapeMetrics(c *http.Client, base string) (promSample, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(promSample)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		line, _, _ = strings.Cut(line, " # ")
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after minus before for one series.
func (p promSample) delta(before promSample, series string) float64 {
	return p[series] - before[series]
}

// histQuantile interpolates quantile q of a Prometheus histogram family
// from the bucket deltas between two scrapes; 0 when nothing was observed.
func histQuantile(after, before promSample, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for series, v := range after {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil || math.IsInf(le, 1) {
			continue // the +Inf bucket equals _count
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	total := after.delta(before, family+"_count")
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return bs[len(bs)-1].le
}
