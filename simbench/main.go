// Command simbench is acesim's seeded benchmark. It generates scenario
// (and graph) inputs from a seed, runs them through the acesim CLI with
// at most two workers, checks every output, and prints one JSON result
// line. With -trace 1 it instead runs the same inputs in-process, one
// unit at a time, and reports per-layer figures. See README.md.
//
//	bash simbench/run.sh --workload des-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"syscall"
)

// ledger counts operations and correctness checks; each is one entry
// of the result's attempted/failed counts.
type ledger struct {
	attempted, failed int
}

// check records one operation or check, logging a failure to stderr.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	l.attempted++
	if !ok {
		l.failed++
		fmt.Fprintf(os.Stderr, "simbench: FAIL: "+format+"\n", args...)
	}
	return ok
}

// checkErr records an operation that fails with err.
func (l *ledger) checkErr(err error, what string) bool {
	if err != nil {
		return l.check(false, "%s: %v", what, err)
	}
	return l.check(true, "")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: des-sweep, hybrid-sweep or trace-power")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time per run")
	traced := flag.Int("trace", 0, "1 runs the traced in-process mode and reports per-layer metrics")
	acesim := flag.String("acesim", "", "path to the acesim binary")
	work := flag.String("work", "", "scratch directory for generated inputs and outputs")
	flag.Parse()
	if *acesim == "" || *work == "" || !slices.Contains(workloadNames, *name) || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "simbench: need -acesim, -work, -trace 0|1 and -workload in %v\n", workloadNames)
		os.Exit(2)
	}
	limitAddressSpace()
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	var led ledger
	var metrics map[string]metric
	var digest string
	var err error
	if *traced == 1 {
		metrics, digest, err = tracedRun(*name, *seed, dir, *acesim, &led)
	} else {
		metrics, digest, err = untracedRun(*name, *seed, *seconds, dir, *acesim, &led)
	}
	os.RemoveAll(dir) // exports run to tens of MB each
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Printf("digest %s %s\n", *name, digest)
	for _, k := range slices.Sorted(maps.Keys(metrics)) {
		fmt.Printf("%-34s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	out, err := json.Marshal(result{
		Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// limitAddressSpace caps this process's virtual address space; acesim
// children inherit the cap. It backs up the RSS watchdog: an allocation
// burst faster than the watchdog's poll fails inside the child instead
// of pushing the host into the OOM killer.
func limitAddressSpace() {
	const capBytes = 5 << 30
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_AS, &lim); err != nil || lim.Cur <= capBytes {
		return
	}
	lim.Cur = capBytes
	_ = syscall.Setrlimit(syscall.RLIMIT_AS, &lim) // best effort: the watchdog still applies
}

// median returns the middle value (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (nearest rank) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func hexSum(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
