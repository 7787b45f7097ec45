package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// rssCeilingMB is the resident-set ceiling of one acesim child. The
	// benchmark box has 7 GB and no swap; a child past this is killed
	// and counted as a failed operation instead of taking the host down.
	rssCeilingMB = 3072
	// childTimeout bounds one child so a wedged simulation cannot hang
	// the run.
	childTimeout = 150 * time.Second
	// rssPoll is how often the watchdog samples a child's RSS.
	rssPoll = 20 * time.Millisecond
)

// childRun is the host-side cost and output of one acesim process.
type childRun struct {
	wall, cpu time.Duration
	maxRSSMB  float64
	stdout    []byte
}

// runChild runs one acesim process with the benchmark's environment
// (GOMAXPROCS pinned to the two-core budget), a resident-set watchdog
// and a timeout. A non-zero exit, a kill at the ceiling or a timeout is
// an error; the process has always ended when runChild returns.
func runChild(bin string, args ...string) (childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var killed atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if rssMB(cmd.Process.Pid) > rssCeilingMB {
					killed.Store(true)
					_ = cmd.Process.Kill() // the process may already be exiting
					return
				}
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	close(stop)
	wg.Wait()
	var r childRun
	r.wall, r.stdout = wall, stdout.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	switch {
	case killed.Load():
		return r, fmt.Errorf("%s killed at the %d MB RSS ceiling", describeArgs(args), rssCeilingMB)
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return r, fmt.Errorf("%s timed out after %s", describeArgs(args), childTimeout)
	case err != nil:
		return r, fmt.Errorf("%s: %v: %s", describeArgs(args), err, strings.TrimSpace(stderr.String()))
	}
	return r, nil
}

func describeArgs(args []string) string { return "acesim " + strings.Join(args, " ") }

// rssMB reads a process's current resident set from /proc (0 when the
// process is gone or /proc is unavailable).
func rssMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
