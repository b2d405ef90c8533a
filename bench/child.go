package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/obs"
)

var buildChildOnce struct {
	sync.Once
	path string
	err  error
}

// buildChild compiles cmd/quicksand from the checkout's source, once per
// process and outside every timed section, so the binary measured is
// always the code in the tree.
func buildChild(rc *runCtx) (string, error) {
	b := &buildChildOnce
	b.Do(func() {
		b.path = filepath.Join(rc.buildDir, "quicksand")
		cmd := exec.Command("go", "build", "-o", b.path, "./cmd/quicksand")
		cmd.Dir = rc.root
		if out, err := cmd.CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build ./cmd/quicksand: %v\n%s", err, out)
		}
	})
	return b.path, b.err
}

// childGOMAXPROCS is the GOMAXPROCS the child runs with: it inherits the
// environment, and otherwise takes every CPU.
func childGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// child is one running `quicksand serve` process.
type child struct {
	cmd      *exec.Cmd
	bgpAddr  string
	httpAddr string
	started  time.Time
	client   *http.Client
	logDone  chan struct{}
	mu       sync.Mutex
	logTail  []string
}

var listenRE = regexp.MustCompile(`BGP (\S+), HTTP ([0-9.]+:[0-9]+)`)

// startChild runs `serve` with the given extra flags on kernel-chosen
// loopback ports and waits until /healthz answers 200.
func startChild(bin string, extra ...string) (*child, error) {
	args := append([]string{"serve",
		"-listen-bgp", "127.0.0.1:0", "-listen-http", "127.0.0.1:0",
		"-asn", strconv.Itoa(childASN)}, extra...)
	cmd := exec.Command(bin, args...)
	// The child must not outlive a benchmark that dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, started: time.Now(), logDone: make(chan struct{}), client: &http.Client{Timeout: 10 * time.Second}}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(c.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if c.logTail = append(c.logTail, line); len(c.logTail) > 20 {
				c.logTail = c.logTail[1:]
			}
			c.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrs <- [2]string{m[1], m[2]}:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addrs:
		c.bgpAddr, c.httpAddr = a[0], a[1]
	case <-c.logDone:
		c.cmd.Wait()
		return nil, fmt.Errorf("serve exited before listening:\n%s", c.tail())
	case <-time.After(30 * time.Second):
		c.kill()
		return nil, fmt.Errorf("serve did not report its listeners:\n%s", c.tail())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.client.Get("http://" + c.httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("/healthz never answered 200: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) tail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.logTail, "\n")
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.logDone
	c.cmd.Wait()
}

// stop sends SIGTERM and waits for the graceful drain; the daemon must
// exit 0. It returns how long the drain took.
func (c *child) stop() (time.Duration, error) {
	// serve installs its signal handler only after its listeners are up, so
	// a SIGTERM in the first instants of its life kills it outright.
	if grace := 200*time.Millisecond - time.Since(c.started); grace > 0 {
		time.Sleep(grace)
	}
	start := time.Now()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return 0, err
	}
	timer := time.AfterFunc(20*time.Second, func() { c.cmd.Process.Kill() })
	defer timer.Stop()
	<-c.logDone // stderr closes when the process exits
	err := c.cmd.Wait()
	if err != nil {
		return 0, fmt.Errorf("serve did not exit 0 on SIGTERM: %v\n%s", err, c.tail())
	}
	return time.Since(start), nil
}

// cpuSeconds is the child's CPU time so far: the scheduler's
// nanosecond run-time counters summed over its threads, or where the
// kernel keeps none, user+system clock ticks.
func (c *child) cpuSeconds() (float64, error) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	if tasks, err := os.ReadDir("/proc/" + pid + "/task"); err == nil {
		var ns float64
		for _, t := range tasks {
			raw, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/schedstat")
			if err != nil {
				continue // the thread exited between the listing and the read
			}
			if run, _, ok := strings.Cut(string(raw), " "); ok {
				v, _ := strconv.ParseFloat(run, 64)
				ns += v
			}
		}
		if ns > 0 {
			return ns / 1e9, nil
		}
	}
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	i := strings.LastIndexByte(string(raw), ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, errors.New("unparseable /proc stat")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparseable /proc stat times")
	}
	const clockTick = 100 // USER_HZ, fixed on Linux
	return (utime + stime) / clockTick, nil
}

// peakRSSMB reads a process's resident-set high-water mark.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clearPeakRSS starts a process's high-water mark afresh from what is
// resident now. Writing 5 to clear_refs does that (Linux 4.0+); where it
// cannot, later readings include everything before them.
func clearPeakRSS(pid string) {
	_ = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// takePeakRSSMB reads the child's high-water mark since the last call and
// starts it afresh. peak_rss_mb is the median of these over the run's
// slices: a garbage-collected process's peak depends on when collections
// happen to fall, so the whole run's single peak is its unluckiest moment
// (22.9-26.2 MB over ten identical steady runs).
func (c *child) takePeakRSSMB() (float64, error) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	mb, err := peakRSSMB(pid)
	clearPeakRSS(pid)
	return mb, err
}

// metricsBody fetches the child's /metrics exposition over the child's
// keep-alive client.
func (c *child) metricsBody() ([]byte, error) {
	resp, err := c.client.Get("http://" + c.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape fetches and parses the child's /metrics.
func (c *child) scrape() (*obs.Snapshot, error) {
	raw, err := c.metricsBody()
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(bytes.NewReader(raw))
}

// dial opens one BGP session to the child as AS asn and insists on
// 4-octet AS_PATH encoding: without it the tracers cannot be told apart.
func (c *child) dial(asn bgp.ASN, k int) (*bgpd.Session, error) {
	conn, err := net.Dial("tcp", c.bgpAddr)
	if err != nil {
		return nil, err
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{
		ASN: asn, AS4: true,
		BGPID: netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + k)}),
		// HoldTime 0: the benchmark never reads its end of the session.
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !sess.AS4() {
		sess.Close()
		return nil, errors.New("session did not negotiate 4-octet ASNs")
	}
	return sess, nil
}
