package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one `existdlog serve` process under test.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

// live tracks every child still running, so that an error path or a
// signal never leaves one behind.
var live struct {
	sync.Mutex
	set map[*child]bool
}

func killAllChildren() {
	live.Lock()
	var all []*child
	for c := range live.set {
		all = append(all, c)
	}
	live.Unlock()
	for _, c := range all {
		c.kill()
	}
}

// childProcs is the GOMAXPROCS every child runs with: two threads where
// the box has them, so concurrent GC is real but the client keeps some
// CPU of its own.
func childProcs() int { return min(2, runtime.NumCPU()) }

// startChild execs `serve` on a free loopback port and returns as soon
// as the process exists; awaitReady waits for /readyz. Every flag but
// the address (and -wal on the workload that writes) is left at its
// default: the benchmark measures the product as it ships.
func startChild(bin, programFile, walDir string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	args := []string{"serve", "-addr", addr}
	if walDir != "" {
		args = append(args, "-wal", walDir)
	}
	cmd := exec.Command(bin, append(args, programFile)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	// Stdout and Stderr stay nil: the request log goes to /dev/null.
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(c.done) }()
	live.Lock()
	if live.set == nil {
		live.set = map[*child]bool{}
	}
	live.set[c] = true
	live.Unlock()
	return c, nil
}

// awaitReady polls /readyz until it answers 200.
func (c *child) awaitReady(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-c.done:
			return errors.New("child exited before it was ready")
		default:
		}
		resp, err := hc.Get(c.base + "/readyz")
		if err == nil {
			// Drain before closing, or the transport drops the
			// connection the measured ops are to reuse.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("child not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the process has ended. The
// benchmark never needs a graceful drain, and on mixed_rw the abrupt
// end is the point.
func (c *child) kill() {
	c.cmd.Process.Signal(syscall.SIGKILL)
	<-c.done
	live.Lock()
	delete(live.set, c)
	live.Unlock()
}

// cpu returns the user+system CPU time the child has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (c *child) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields count from
	// the closing parenthesis.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat line: %q", data)
	}
	const tick = time.Second / 100
	return time.Duration(utime+stime) * tick, nil
}

// memKB reads one "VmRSS:" or "VmHWM:" line of /proc/<pid>/status.
func (c *child) memKB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}
