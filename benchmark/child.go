package main

import (
	"bufio"
	"bytes"
	"context"
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
	"sync"
	"syscall"
	"time"
)

// env is where the benchmark lives and what its children run with.
type env struct {
	benchDir string   // the benchmark/ directory (goldens, out/)
	rootDir  string   // the module root that holds cmd/cablesim
	outDir   string   // benchmark/out: binaries, traces, crash logs, results
	bin      string   // the built cablesim binary
	childEnv []string // environment of every child process
	crashes  int      // crash logs written so far (names them)
	mu       sync.Mutex
}

// clearedEnv names the variables that would silently change what the
// children simulate; they are removed from the child environment and
// recorded in the host fingerprint.
var clearedEnv = []string{"CABLES_SCHED", "CABLES_PROTOCOL", "GOMAXPROCS"}

// maxProcs is the most processors the benchmark uses, however many the host
// has: every child runs with GOMAXPROCS set to benchProcs() — which is also
// cablesim's default for -jobs — and the load generator keeps that many
// connections.  A run then means the same on a larger host, and the
// simulator's intermittent crash stays as rare as it was measured here: its
// rate rises with the number of simulated threads that really run at once
// (README, known limits).
const maxProcs = 2

func benchProcs() int { return min(runtime.NumCPU(), maxProcs) }

// newEnv locates the benchmark directory (the working directory under
// `go run -C benchmark .`, or ./benchmark from the module root) and prepares
// the child environment.  extra is the -child-env list ("K=V,K=V") the
// sensitivity run uses to set CABLES_SCHED in the children only.
func newEnv(extra string) (*env, error) {
	dir := ""
	for _, c := range []string{".", "benchmark"} {
		if _, err := os.Stat(filepath.Join(c, "golden")); err == nil {
			dir = c
			break
		}
	}
	if dir == "" {
		return nil, fmt.Errorf("benchmark directory not found (run from the module root or benchmark/)")
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	e := &env{benchDir: abs, rootDir: filepath.Dir(abs), outDir: filepath.Join(abs, "out")}
	if _, err := os.Stat(filepath.Join(e.rootDir, "cmd", "cablesim")); err != nil {
		return nil, fmt.Errorf("no cmd/cablesim beside %s: %v", abs, err)
	}
	if err := os.MkdirAll(filepath.Join(e.outDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	e.bin = filepath.Join(e.outDir, "bin", "cablesim")
	for _, kv := range os.Environ() {
		keep := true
		for _, c := range clearedEnv {
			if strings.HasPrefix(kv, c+"=") {
				keep = false
			}
		}
		if keep {
			e.childEnv = append(e.childEnv, kv)
		}
	}
	e.childEnv = append(e.childEnv, "GOMAXPROCS="+strconv.Itoa(benchProcs()))
	if extra != "" {
		e.childEnv = append(e.childEnv, strings.Split(extra, ",")...)
	}
	return e, nil
}

// build compiles cablesim from the checkout's source into out/bin and
// returns how long that took.  The compile is cached by the go tool after
// the first call; the link is paid every time.
func (e *env) build(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin, "./cmd/cablesim")
	cmd.Dir = e.rootDir
	cmd.Env = e.childEnv
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/cablesim: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// saveCrash writes a dead child's stderr tail to out/crash-*.log.
func (e *env) saveCrash(what string, tail []byte) {
	e.mu.Lock()
	e.crashes++
	n := e.crashes
	e.mu.Unlock()
	name := filepath.Join(e.outDir, fmt.Sprintf("crash-%s-%d-%d.log", what, os.Getpid(), n))
	_ = os.WriteFile(name, tail, 0o644) // best effort: the failure is already counted
	fmt.Printf("# child failed (%s); stderr tail in %s\n", what, name)
}

// tailBuffer keeps the last max bytes written to it: a crash log that does
// not grow with the server's request logging.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) Bytes() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf
	if len(b) > t.max {
		b = b[len(b)-t.max:]
	}
	return append([]byte(nil), b...)
}

// Deadlines.  The simulator can hang as well as crash, and a hung child must
// not carry a run past the driver's 180 s limit: a paper-scale grid takes
// about 6 s on two processors and a sweep at most a few seconds, so these
// leave a slow host a factor of five and still fit three failures in a run.
const (
	gridDeadline   = 40 * time.Second // one `cablesim fig5` or `counters` over the grid
	canaryDeadline = 10 * time.Second // one `counters` run of the canary's grid (about 0.5 s)
	sweepDeadline  = 30 * time.Second // one sweep, POST to terminal event
	probeDeadline  = 60 * time.Second // the probe child
	drainDeadline  = 10 * time.Second // SIGTERM to exit; a hung cell never drains
)

// usage is what a finished child cost the host.
type usage struct {
	wall  time.Duration
	cpu   time.Duration // user + system
	rssMB float64       // max resident set
}

// runChild runs one cablesim batch command to completion under a deadline
// and returns its stdout and resource usage.  A non-zero exit, a signal or
// a timeout is an error, and the stderr tail is saved as a crash log.
func (e *env) runChild(ctx context.Context, deadline time.Duration, args ...string) ([]byte, usage, error) {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.bin, args...)
	cmd.Env = e.childEnv
	cmd.Dir = e.outDir
	var stdout bytes.Buffer
	stderr := &tailBuffer{max: 16 << 10}
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	start := time.Now()
	err := cmd.Run()
	u := usage{wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		u.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("timeout after %v: %w", deadline, err)
		}
		e.saveCrash(args[0], stderr.Bytes())
		return nil, u, fmt.Errorf("cablesim %s: %w", args[0], err)
	}
	return stdout.Bytes(), u, nil
}

// runChildRetry is runChild for commands outside the timed reps: a child
// that dies (the known intermittent crash) is rerun at most twice.  crashed
// is how many attempts died, whether or not the last one succeeded.
func (e *env) runChildRetry(ctx context.Context, deadline time.Duration, args ...string) (out []byte, u usage, crashed int, err error) {
	for crashed < 3 {
		if out, u, err = e.runChild(ctx, deadline, args...); err == nil {
			break
		}
		crashed++
	}
	return out, u, crashed, err
}

// server is one live `cablesim serve` child.
type server struct {
	e       *env
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  *tailBuffer
	drained chan struct{} // closed when stdout printed the drained line
	exited  chan struct{} // closed when the process has been reaped
	waitErr error
	bootDur time.Duration // exec to /readyz 200
}

// startServer boots `cablesim serve` with its defaults (plus extra flags) on
// a free loopback port and waits for /readyz to answer 200.
func (e *env) startServer(ctx context.Context, extra ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	s := &server{e: e, base: "http://" + addr, stderr: &tailBuffer{max: 16 << 10},
		drained: make(chan struct{}), exited: make(chan struct{})}
	s.cmd = exec.Command(e.bin, append([]string{"serve", "-addr", addr}, extra...)...)
	s.cmd.Env = e.childEnv
	s.cmd.Dir = e.outDir
	s.cmd.Stderr = s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		seen := false
		for sc.Scan() {
			if !seen && strings.HasSuffix(sc.Text(), "drained") {
				seen = true
				close(s.drained)
			}
		}
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	giveUp := time.After(20 * time.Second)
	for {
		if resp, err := http.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootDur = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-tick.C:
		case <-s.exited:
			e.saveCrash("serve-boot", s.stderr.Bytes())
			return nil, fmt.Errorf("cablesim serve exited during boot: %v", s.waitErr)
		case <-giveUp:
			s.kill("serve-boot")
			return nil, fmt.Errorf("cablesim serve not ready after 20s")
		case <-ctx.Done():
			s.kill("serve-boot")
			return nil, ctx.Err()
		}
	}
}

// alive reports whether the server process is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// kill ends a server that cannot be stopped cleanly and saves its log.
func (s *server) kill(what string) {
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.exited
	s.e.saveCrash(what, s.stderr.Bytes())
}

// stop sends SIGTERM, awaits the drained line and the exit, and returns how
// long the drain took.  A server that already died, exits non-zero or does
// not drain within drainDeadline is an error (and is killed).
func (s *server) stop() (time.Duration, error) {
	if !s.alive() {
		s.e.saveCrash("serve", s.stderr.Bytes())
		return 0, fmt.Errorf("cablesim serve died: %v", s.waitErr)
	}
	start := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill("serve-stop")
		return 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(drainDeadline):
		s.kill("serve-stop")
		return 0, fmt.Errorf("cablesim serve did not drain within %v", drainDeadline)
	}
	dur := time.Since(start)
	select {
	case <-s.drained:
	default:
		s.e.saveCrash("serve-stop", s.stderr.Bytes())
		return dur, fmt.Errorf("cablesim serve exited without the drained line: %v", s.waitErr)
	}
	if s.waitErr != nil {
		s.e.saveCrash("serve-stop", s.stderr.Bytes())
		return dur, fmt.Errorf("cablesim serve: %v", s.waitErr)
	}
	return dur, nil
}

// procUsage reads a live server's CPU time and resident-set high-water mark
// from /proc, so a timed phase can be charged only its own CPU.
func (s *server) procUsage() (cpu time.Duration, rssMB float64) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	if stat, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the whole line, in clock ticks (100/s).
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
			f := strings.Fields(string(stat[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				cpu = time.Duration(ut+st) * (time.Second / 100)
			}
		}
	}
	if status, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					rssMB = kb / 1024
				}
			}
		}
	}
	return cpu, rssMB
}

// selfCPU is the load generator's own user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fingerprint identifies the host a result was taken on.
type fingerprint struct {
	NumCPU     int               `json:"numCPU"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	ChildProcs int               `json:"childProcs"` // GOMAXPROCS of every child, and the client connections
	Go         string            `json:"go"`
	Kernel     string            `json:"kernel"`
	ClearedEnv map[string]string `json:"clearedEnv"` // what the cleared variables held
	ChildEnv   string            `json:"childEnv,omitempty"`
}

func hostFingerprint(childEnv string) fingerprint {
	fp := fingerprint{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ChildProcs: benchProcs(),
		Go: runtime.Version(), ClearedEnv: map[string]string{}, ChildEnv: childEnv}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	for _, k := range clearedEnv {
		fp.ClearedEnv[k] = os.Getenv(k)
	}
	return fp
}
