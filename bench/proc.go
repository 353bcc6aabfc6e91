package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
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
	"unsafe"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 on every architecture Go runs on.
const clockTick = 100

// cpuTimes is a process's accumulated CPU, in seconds.
type cpuTimes struct{ user, sys float64 }

func (c cpuTimes) total() float64 { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// procCPU reads user and system CPU seconds of pid from /proc.
func procCPU(pid int) (cpuTimes, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// comm is parenthesised and may contain spaces; the fields after it
	// start with state, so utime and stime are the 12th and 13th.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return cpuTimes{}, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseUint(fields[11], 10, 64)
	st, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return cpuTimes{}, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return cpuTimes{float64(ut) / clockTick, float64(st) / clockTick}, nil
}

// procStatusMB reads one kB-valued field (VmRSS, VmHWM) of
// /proc/<pid>/status, in MB.
func procStatusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		return kb / 1024, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, field)
}

// selfCPU is this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPasses is how many passes an in-process workload has made when it reads
// its peak memory. A peak only grows, and how many passes fit in a run
// depends on the day, so the peak is read after a fixed amount of work.
const rssPasses = 3

// selfPeakRSSMB is this process's peak resident set (VmHWM).
func selfPeakRSSMB() float64 {
	mb, err := procStatusMB(0, "VmHWM")
	if err != nil {
		return 0
	}
	return mb
}

// freeAddr asks the kernel for an unused loopback port of the given network
// ("udp" or "tcp") and releases it for a daemon to bind.
func freeAddr(network string) (string, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer c.Close()
		return c.LocalAddr().String(), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemon is one spawned pipeline process.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	obsAddr string
	logPath string
	done    chan struct{} // closed when the process has been waited for
	waitErr error
}

// startDaemon spawns bin with args on the given CPUs, logging to logPath,
// and waits until its /healthz answers 200. GOMAXPROCS is set to the number
// of CPUs, so the Go scheduler and not the kernel shares them out among the
// daemon's goroutines. On any failure the process is already stopped.
func startDaemon(ctx context.Context, name, bin, obsAddr, logPath string, cpus []int, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", len(cpus)))
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, obsAddr: obsAddr, logPath: logPath, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	err = pinProcess(d.pid(), cpus)
	if err == nil {
		err = d.waitHealthy(ctx, 10*time.Second)
	}
	if err != nil {
		d.stop(0)
		return nil, err
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) waitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if _, err := d.get("/healthz"); err == nil {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before becoming healthy: %v\n%s", d.name, d.waitErr, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v\n%s", d.name, limit, d.logTail())
		}
	}
}

// get fetches a path of the daemon's diagnostics server; a status other than
// 200 is an error.
func (d *daemon) get(path string) ([]byte, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + d.obsAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: %s: %s", d.name, path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrape reads /metrics and sums every series of a family into one number
// per metric name (labels are dropped; histogram series are skipped).
func (d *daemon) scrape() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// stop ends the process and waits for it: SIGTERM first when grace > 0 (the
// daemons flush their writers on it), SIGKILL once grace has passed.
func (d *daemon) stop(grace time.Duration) {
	if grace > 0 {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
			return
		case <-time.After(grace):
		}
	}
	d.cmd.Process.Kill()
	<-d.done
}

func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return string(data)
}

// buildDaemons compiles cmd/resolver and cmd/vantage into dir.
func buildDaemons(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/resolver", "./cmd/vantage")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the daemons: %w\n%s", err, out)
	}
	return nil
}

// countLines returns the number of newline-terminated lines and the size of
// the file at path.
func countLines(path string) (lines, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	for {
		n, err := f.Read(buf)
		lines += int64(bytes.Count(buf[:n], []byte{'\n'}))
		size += int64(n)
		if err == io.EOF {
			return lines, size, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

// allowedCPUs is the set of CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var mask [16]uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinProcess restricts every thread of pid (0 = this process) to cpus.
// Threads created afterwards inherit the restriction from their creator.
func pinProcess(pid int, cpus []int) error {
	var mask [16]uint64
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	dir := "/proc/self/task"
	if pid > 0 {
		dir = fmt.Sprintf("/proc/%d/task", pid)
	}
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 && errno != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
		}
	}
	return nil
}
