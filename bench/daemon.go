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
	"syscall"
	"time"
)

// The program under test is the real cmd/ibox-serve binary, built from
// the checkout and started with default flags: only -addr, -models and
// -warm are set. The benchmark talks to it over loopback and reads its
// CPU time and peak memory from /proc.

// buildServe compiles cmd/ibox-serve into the checkout's build directory.
// With a warm build cache this is a no-op of a few hundred milliseconds.
func buildServe(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "ibox-serve")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ibox-serve")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ibox-serve: %w\n%s", err, out.String())
	}
	return bin, nil
}

// daemon is one running ibox-serve.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	logFile *os.File
	setup   time.Duration // exec → /readyz 200
	exited  chan error
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

// startDaemon execs the daemon and waits until /readyz answers 200, which
// the daemon only does after every -warm checkpoint is loaded (it warms
// before it listens). The elapsed time is the workload's set-up time.
func startDaemon(bin, modelDir, logPath string, warm []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-models", modelDir, "-warm", strings.Join(warm, ","))
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// If the benchmark is killed (a driver time-out), the daemon must not
	// outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, logFile: logFile, exited: make(chan error, 1)}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	go func() { d.exited <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := t0.Add(60 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(t0)
				return d, nil
			}
		}
		select {
		case werr := <-d.exited:
			logFile.Close()
			return nil, fmt.Errorf("ibox-serve exited during start-up: %v\n%s", werr, tail(logPath, 20))
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("ibox-serve not ready after 60s\n%s", tail(logPath, 20))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for a clean drain: exit status 0 and the
// daemon's own "drained cleanly" log line.
func (d *daemon) stop() error {
	defer d.logFile.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("ibox-serve exit: %w\n%s", err, tail(d.logPath, 20))
		}
	case <-time.After(40 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("ibox-serve did not drain within 40s of SIGTERM")
	}
	log, err := os.ReadFile(d.logPath)
	if err != nil {
		return err
	}
	if !bytes.Contains(log, []byte("drained cleanly")) {
		return fmt.Errorf("ibox-serve exited without logging a clean drain\n%s", tail(d.logPath, 20))
	}
	return nil
}

// kill is the error-path teardown; it always waits for the process.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.logFile.Close()
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) { return procCPUSeconds(d.cmd.Process.Pid) }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; it is 100 on
// every Linux platform Go supports.
const clockTick = 100

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad times in /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMiB reads a process's high-water resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPUSeconds is the benchmark process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// scrape fetches the daemon's Prometheus exposition as name → value
// (labelled series keep their label text in the key), over the load
// generator's own bounded connections.
func (d *daemon) scrape(hc *http.Client) (map[string]float64, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// tail returns the last n lines of a file, for error messages.
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
