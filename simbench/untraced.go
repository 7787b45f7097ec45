package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"acesim/internal/trace"
)

const (
	// setup_s is the median of fresh `scenario validate` processes:
	// setupsPerPass after each measured pass, and at least minSetups.
	setupsPerPass = 5
	minSetups     = 21
	// minPasses keeps a median meaningful when one pass takes most of
	// the measurement time.
	minPasses = 3
	// passWorkers is the runner pool size of a measured pass: the
	// benchmark box has two cores.
	passWorkers = 2
)

// pass is one run of every workload file through the CLI.
type pass struct {
	wall, cpu, rssMB float64
	// doc is what the pass printed about the simulation: the JSON
	// results of `scenario run`, or for `acesim trace` its tables plus
	// the SHA-256 of each Chrome export. Passes over the same inputs
	// must print the same doc.
	doc     []byte
	exports []string
}

// runPass pushes the workload's files through acesim once.
func runPass(w *workloadSpec, files []string, bin string, workers int, outDir string) (pass, error) {
	var p pass
	add := func(r childRun) {
		p.wall += r.wall.Seconds()
		p.cpu += r.cpu.Seconds()
		p.rssMB = max(p.rssMB, r.maxRSSMB)
	}
	if !w.traced {
		args := append([]string{"scenario", "run", "-workers", fmt.Sprint(workers), "-format", "json"}, files...)
		r, err := runChild(bin, args...)
		add(r)
		p.doc = r.stdout
		return p, err
	}
	var doc bytes.Buffer
	for _, f := range files {
		out := filepath.Join(outDir, strings.TrimSuffix(filepath.Base(f), ".json")+".trace.json")
		r, err := runChild(bin, "trace", "-workers", fmt.Sprint(workers), "-out", out, f)
		add(r)
		if err != nil {
			return p, err
		}
		sum, err := fileSum(out)
		if err != nil {
			return p, err
		}
		doc.Write(traceText(r.stdout))
		fmt.Fprintf(&doc, "chrome %s\n", sum)
		p.exports = append(p.exports, out)
	}
	p.doc = doc.Bytes()
	return p, nil
}

// traceText drops the "wrote <path> ..." lines from `acesim trace`
// output; they name output paths, not simulation results.
func traceText(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if !strings.HasPrefix(line, "wrote ") {
			b.WriteString(line)
		}
	}
	return b.Bytes()
}

func fileSum(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// resultsDoc is the part of `scenario run -format json` output the
// benchmark reads.
type resultsDoc struct {
	Name  string `json:"name"`
	Units []struct {
		Kind    string             `json:"kind"`
		Jobs    []string           `json:"jobs"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"units"`
	Failures []string `json:"failures"`
}

// parseDocs decodes the concatenated JSON documents of one
// `scenario run` invocation (one per file).
func parseDocs(out []byte) ([]resultsDoc, error) {
	var docs []resultsDoc
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var d resultsDoc
		if err := dec.Decode(&d); err != nil {
			return nil, fmt.Errorf("decoding scenario results: %w", err)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// simMillis sums each unit's primary simulated duration: a collective's
// duration, a training iteration, a graph's span, the overlapped
// all-reduce of a microbench, and the last co-running sub-job of a
// multijob unit.
func simMillis(docs []resultsDoc) float64 {
	us := 0.0
	for _, d := range docs {
		for _, u := range d.Units {
			m := u.Metrics
			switch u.Kind {
			case "collective":
				us += m["duration_us"]
			case "training":
				us += m["iter_time_us"]
			case "graph":
				us += m["graph_span_us"]
			case "microbench":
				us += m["overlap_us"]
			case "multijob":
				last := 0.0
				for _, j := range u.Jobs {
					last = max(last, m[j+"_co_us"])
				}
				us += last
			}
		}
	}
	return us / 1000
}

// untracedRun is the measured mode: repeated passes at two workers for
// the measurement time, with every output checked. The machine's speed
// drifts on a scale of seconds, so the set-up samples and the unmeasured
// reference runs are interleaved between measured passes: every median
// then draws on samples spread over the whole run.
func untracedRun(name string, seed uint64, seconds float64, dir, bin string, led *ledger) (map[string]metric, string, error) {
	w, err := genInputs(name, seed, dir, func(f func() error) error { return f() })
	if err != nil {
		return nil, "", err
	}

	// Set-up: parse, validate and expand every file in a fresh process.
	var setups []float64
	setup := func() {
		r, err := runChild(bin, append([]string{"scenario", "validate"}, w.files...)...)
		if led.checkErr(err, "scenario validate") {
			setups = append(setups, r.wall.Seconds())
		}
	}

	// Unmeasured reference runs: one worker (the determinism reference),
	// the JSON metrics of a traced workload (`acesim trace` prints tables
	// only), and the DES twins of a hybrid sweep.
	var one pass
	var jsonOut, twinOut []byte
	refs := []func(){func() {
		var err error
		one, err = runPass(w, w.files, bin, 1, dir)
		led.checkErr(err, "one-worker reference pass")
	}}
	if w.traced {
		refs = append(refs, func() {
			r, err := runChild(bin, append([]string{"scenario", "run", "-workers", fmt.Sprint(passWorkers), "-format", "json"}, w.files...)...)
			led.checkErr(err, "scenario run of the traced inputs")
			jsonOut = r.stdout
		})
	}
	if len(w.twins) > 0 {
		refs = append(refs, func() {
			twin, err := runPass(w, w.twins, bin, passWorkers, dir)
			if led.checkErr(err, "DES twin pass") {
				twinOut = twin.doc
			}
		})
	}

	setup() // also warms the page cache for the first measured pass
	var passes []pass
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds() < seconds {
		p, err := runPass(w, w.files, bin, passWorkers, dir)
		if !led.checkErr(err, "measured pass") {
			if time.Since(start).Seconds() > 3*seconds {
				break // a failing program must not spin the run out
			}
			continue
		}
		if len(passes) > 0 {
			led.check(bytes.Equal(p.doc, passes[0].doc), "pass %d printed a different digest", len(passes))
		}
		fmt.Fprintf(os.Stderr, "simbench: pass %d: wall %.3fs cpu %.3fs rss %.1fMB\n", len(passes), p.wall, p.cpu, p.rssMB)
		passes = append(passes, p)
		for i := 0; i < setupsPerPass; i++ {
			setup()
		}
		if len(refs) > 0 {
			refs[0]()
			refs = refs[1:]
		}
	}
	for _, ref := range refs {
		ref()
	}
	for len(setups) < minSetups && led.failed == 0 {
		setup()
	}
	if len(passes) == 0 {
		return nil, "", fmt.Errorf("no measured pass completed")
	}

	led.check(bytes.Equal(passes[0].doc, one.doc), "results differ between 1 and %d workers", passWorkers)
	if !w.traced {
		jsonOut = one.doc
	}
	docs, err := parseDocs(jsonOut)
	led.checkErr(err, "scenario results")
	for _, d := range docs {
		led.check(len(d.Failures) == 0, "scenario %s assertions: %v", d.Name, d.Failures)
	}
	if len(w.twins) > 0 {
		checkTwins(led, docs, twinOut)
	}
	simMs := simMillis(docs)
	led.check(simMs > 0, "no simulated time in the results")
	for _, path := range passes[len(passes)-1].exports {
		st, err := validateChromeFile(path)
		led.checkErr(err, "ValidateChrome "+filepath.Base(path))
		led.check(st.Spans > 0, "%s holds no spans", filepath.Base(path))
	}

	var wall, cpu, rss, rate []float64
	for _, p := range passes {
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		rss = append(rss, p.rssMB)
		rate = append(rate, simMs/p.cpu)
	}
	fmt.Fprintf(os.Stderr, "simbench: %s seed %d: %d passes, %d set-ups, %d units\n", name, seed, len(passes), len(setups), countUnits(docs))
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"wall_s":           {median(wall), "s"},
		"cpu_s":            {median(cpu), "s"},
		"peak_rss_mb":      {median(rss), "MB"},
		"sim_ms_per_cpu_s": {median(rate), "1"},
	}, hexSum(passes[0].doc), nil
}

func countUnits(docs []resultsDoc) int {
	n := 0
	for _, d := range docs {
		n += len(d.Units)
	}
	return n
}

// checkTwins compares every hybrid unit's metrics with its DES twin's,
// one check per unit.
func checkTwins(led *ledger, hybrid []resultsDoc, twinOut []byte) {
	twins, err := parseDocs(twinOut)
	if !led.checkErr(err, "DES twin results") {
		return
	}
	if !led.check(len(twins) == len(hybrid), "%d twin documents for %d hybrid ones", len(twins), len(hybrid)) {
		return
	}
	for i, d := range hybrid {
		if !led.check(len(twins[i].Units) == len(d.Units), "%s: unit counts differ from the DES twin", d.Name) {
			continue
		}
		for j, u := range d.Units {
			a, _ := json.Marshal(u.Metrics)
			b, _ := json.Marshal(twins[i].Units[j].Metrics)
			led.check(bytes.Equal(a, b), "%s unit %d: hybrid metrics %s differ from DES %s", d.Name, j, a, b)
		}
	}
}

func validateChromeFile(path string) (trace.ChromeStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.ChromeStats{}, err
	}
	defer f.Close()
	return trace.ValidateChrome(f)
}
