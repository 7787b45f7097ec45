package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acesim/internal/collectives"
	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
	"acesim/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	name       string
	start, dur time.Duration
	// children is the time of spans opened while this one was open.
	children time.Duration
	parent   int
}

// spanRec keeps the traced run's spans in memory. A nil *spanRec runs
// calls untimed.
type spanRec struct {
	t0    time.Time
	spans []span
	open  []int
}

// do times fn as a span named "<layer>.<call>".
func (r *spanRec) do(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0), parent: parent})
	r.open = append(r.open, id)
	err := fn()
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id]
	s.dur = time.Since(r.t0) - s.start
	if parent >= 0 {
		r.spans[parent].children += s.dur
	}
	return err
}

// total sums the durations of spans with the given name.
func (r *spanRec) total(name string) time.Duration {
	var t time.Duration
	for _, s := range r.spans {
		if s.name == name {
			t += s.dur
		}
	}
	return t
}

// self sums the self time (duration minus child spans) of a layer's
// spans.
func (r *spanRec) self(layer string) time.Duration {
	var t time.Duration
	for _, s := range r.spans {
		if strings.HasPrefix(s.name, layer+".") {
			t += s.dur - s.children
		}
	}
	return t
}

// loadedFile is one generated scenario, parsed and expanded.
type loadedFile struct {
	path  string
	sc    *scenario.Scenario
	units []scenario.Unit
}

// fileDoc renders a file's results exactly as the CLI prints them: the
// JSON document of `scenario run`, or for `acesim trace` the tables and
// the SHA-256 of the Chrome export, which is written to the export path
// as `acesim trace` writes it.
func fileDoc(rec *spanRec, f loadedFile, urs []runner.UnitResult, traced bool, export string) ([]byte, float64, error) {
	res := &runner.Results{Name: f.sc.Name, Units: urs, Total: len(urs), Assertions: runner.Evaluate(f.sc.Assertions, urs)}
	var doc bytes.Buffer
	if !traced {
		err := res.WriteJSON(&doc)
		return doc.Bytes(), 0, err
	}
	if err := res.WriteText(&doc); err != nil {
		return nil, 0, err
	}
	h := sha256.New()
	cw := &countWriter{w: h}
	err := rec.do("trace.export", func() error {
		f, err := os.Create(export)
		if err != nil {
			return err
		}
		if err := res.WriteChromeTrace(io.MultiWriter(cw, f)); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(&doc, "chrome %x\n", h.Sum(nil))
	return doc.Bytes(), float64(cw.n) / (1 << 20), nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// heapPeak samples the live heap every few milliseconds while on.
type heapPeak struct {
	on   atomic.Bool
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			if h.on.Load() {
				metrics.Read(s)
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak in MiB.
func (h *heapPeak) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// timeRunOne returns the median wall time of reps runner.RunOne calls.
func timeRunOne(u scenario.Unit, traced bool, reps int) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := runner.RunOne(u, traced); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// profiled runs fn under a CPU profile, with the heap sampler on, and
// returns the profile's samples.
func profiled(hp *heapPeak, fn func()) ([]profSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	hp.on.Store(true)
	fn()
	hp.on.Store(false)
	pprof.StopCPUProfile()
	return parseCPUProfile(buf.Bytes())
}

// tracedRun is the per-layer mode. It first runs the workload's inputs
// once through the CLI, untraced: that output is the reference digest.
// Then, in-process and one unit at a time, it runs each unit twice back
// to back: through runner.RunOne, then decomposed into layer calls with
// spans, a stepped engine and a CPU profile. Interleaving keeps the
// machine's slow speed drift out of the difference between the two.
// Each decomposed result must equal RunOne's, and the decomposed
// results must render the CLI's output byte for byte.
func tracedRun(name string, seed uint64, dir, bin string, led *ledger) (map[string]metric, string, error) {
	runtime.GOMAXPROCS(passWorkers)
	rec := &spanRec{t0: time.Now()}
	c := &layerCounts{}
	dec := decomposer{rec: rec, c: c}
	w, err := genInputs(name, seed, dir, func(f func() error) error { return rec.do("graph.lower", f) })
	if err != nil {
		return nil, "", err
	}
	cli, err := runPass(w, w.files, bin, passWorkers, dir)
	if !led.checkErr(err, "untraced CLI pass") {
		return nil, "", err
	}

	var files []loadedFile
	for _, path := range w.files {
		f := loadedFile{path: path}
		err := rec.do("scenario.load", func() (err error) {
			f.sc, err = scenario.Load(path)
			return err
		})
		if err == nil {
			err = rec.do("scenario.expand", func() (err error) {
				f.units, err = f.sc.Expand()
				return err
			})
		}
		if !led.checkErr(err, "loading "+filepath.Base(path)) {
			return nil, "", err
		}
		files = append(files, f)
	}

	hp := startHeapPeak()
	var samples []profSample
	var unitMs []float64
	var overhead time.Duration
	var doc bytes.Buffer
	var exportMB float64
	var retained int64
	for _, f := range files {
		var urs []runner.UnitResult
		for j, u := range f.units {
			var want []byte
			var took time.Duration
			reference := func() error {
				var ref runner.UnitResult
				start := time.Now()
				err := rec.do("runner.RunOne", func() (err error) {
					ref, err = runner.RunOne(u, w.traced)
					return err
				})
				took = time.Since(start)
				unitMs = append(unitMs, float64(took)/float64(time.Millisecond))
				if err != nil {
					return err
				}
				want, err = runner.MarshalUnitLine(ref)
				return err
			}
			var ur runner.UnitResult
			var decTook time.Duration
			decomposed := func() error {
				var decErr error
				s, err := profiled(hp, func() {
					start := time.Now()
					ur, decErr = dec.unit(u, w.traced)
					decTook = time.Since(start)
				})
				samples = append(samples, s...)
				return firstErr(decErr, err)
			}
			// Alternate which runs first, so neither side always inherits
			// the other's garbage.
			first, second := reference, decomposed
			if len(unitMs)%2 == 1 {
				first, second = decomposed, reference
			}
			if !led.checkErr(firstErr(first(), second()), fmt.Sprintf("%s unit %d", f.sc.Name, j)) {
				continue
			}
			overhead += decTook - took
			got, err := runner.MarshalUnitLine(ur)
			led.check(err == nil && bytes.Equal(got, want),
				"%s unit %d: decomposed %s != runner.RunOne %s", f.sc.Name, j, got, want)
			urs = append(urs, ur)
		}
		export := filepath.Join(dir, strings.TrimSuffix(filepath.Base(f.path), ".json")+".inproc.trace.json")
		var d []byte
		var mb float64
		var st trace.ChromeStats
		var renderErr, validateErr error
		s, err := profiled(hp, func() {
			d, mb, renderErr = fileDoc(rec, f, urs, w.traced, export)
			if renderErr == nil && w.traced {
				validateErr = rec.do("trace.validate", func() (err error) {
					st, err = validateChromeFile(export)
					return err
				})
			}
		})
		samples = append(samples, s...)
		if !led.checkErr(firstErr(renderErr, err), "rendering "+f.sc.Name) {
			continue
		}
		doc.Write(d)
		exportMB += mb
		if w.traced {
			led.checkErr(validateErr, "ValidateChrome "+filepath.Base(export))
			led.check(st.Spans > 0, "%s holds no spans", filepath.Base(export))
			os.Remove(export)
			// What the file's spans keep alive: the live heap with its
			// results held, minus the heap once they are dropped.
			held := heapAfterGC()
			runtime.KeepAlive(urs)
			retained += int64(held) - int64(heapAfterGC())
		}
	}
	heapMB := hp.done()
	led.check(bytes.Equal(doc.Bytes(), cli.doc), "in-process digest %s differs from the CLI's %s", hexSum(doc.Bytes()), hexSum(cli.doc))

	// The DES events the hybrid units would have run (untimed).
	desEvents := uint64(0)
	if c.hybridUnits > 0 {
		twin := decomposer{c: &layerCounts{}}
		for _, f := range files {
			for _, u := range f.units {
				u.Engine = collectives.EngineDES
				_, err := twin.unit(u, false)
				led.checkErr(err, "DES twin unit")
			}
		}
		desEvents = twin.c.events
	}

	// Overhead ratios of the first fig4 unit (tracing) and the first
	// powered unit (energy accounting), both against untraced RunOne.
	var traceRatio, powerRatio float64
	for _, f := range files {
		for _, u := range f.units {
			if traceRatio == 0 && u.Kind == scenario.KindMicrobench && w.traced {
				on, err1 := timeRunOne(u, true, 3)
				off, err2 := timeRunOne(u, false, 3)
				if led.checkErr(firstErr(err1, err2), "trace overhead") && off > 0 {
					traceRatio = on / off
				}
			}
			if powerRatio == 0 && u.Power != nil && u.Kind != scenario.KindMicrobench {
				on, err1 := timeRunOne(u, false, 3)
				bare := u
				bare.Power = nil
				off, err2 := timeRunOne(bare, false, 3)
				if led.checkErr(firstErr(err1, err2), "power overhead") && off > 0 {
					powerRatio = on / off
				}
			}
		}
	}

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	desRun := rec.total("des.run").Seconds()
	eventRatio := 0.0
	if c.hybridUnits > 0 {
		// Every decomposed unit asked for the hybrid engine (hybrid-sweep).
		eventRatio = ratio(float64(desEvents), float64(c.events))
	}
	if !w.traced {
		heapMB = 0 // the tracer is off: nothing of the trace layer on the heap
	}
	shares := cpuShares(samples)
	out := map[string]metric{
		"scenario.parse_ms":               {ms(rec.total("scenario.load")), "ms"},
		"scenario.expand_ms":              {ms(rec.total("scenario.expand")), "ms"},
		"system.build_ms":                 {ms(rec.total("system.build")), "ms"},
		"graph.lower_ms":                  {ms(rec.total("graph.lower")), "ms"},
		"runner.unit_ms_p50":              {quantile(unitMs, 0.5), "ms"},
		"runner.unit_ms_p99":              {quantile(unitMs, 0.99), "ms"},
		"exper.fig4_ms":                   {ms(rec.total("exper.fig4")), "ms"},
		"exper.interference_ms":           {ms(rec.total("exper.interference")), "ms"},
		"des.run_s":                       {desRun, "s"},
		"des.events":                      {float64(c.events), "count"},
		"des.events_per_s":                {ratio(float64(c.events), desRun), "1/s"},
		"des.allocs_per_event":            {ratio(float64(c.mallocs), float64(c.events)), "count"},
		"des.bytes_per_event":             {ratio(float64(c.allocB), float64(c.events)), "B"},
		"des.queue_depth_p50":             {c.depthQuantile(0.5), "count"},
		"des.queue_depth_max":             {c.depthMax(), "count"},
		"collectives.hybrid_engaged_frac": {ratio(float64(c.engaged), float64(c.hybridUnits)), "1"},
		"collectives.shadow_events":       {float64(c.shadowEvents), "count"},
		"collectives.event_ratio":         {eventRatio, "1"},
		"trace.spans":                     {float64(c.spans), "count"},
		"trace.bytes_per_span":            {ratio(float64(retained), float64(c.spans)), "B"},
		"trace.heap_peak_mb":              {heapMB, "MB"},
		"trace.breakdown_ms":              {ms(rec.total("trace.breakdown")), "ms"},
		"trace.export_ms":                 {ms(rec.total("trace.export")), "ms"},
		"trace.export_mb":                 {exportMB, "MB"},
		"trace.overhead_ratio":            {traceRatio, "1"},
		"power.report_ms":                 {ms(rec.total("power.report")), "ms"},
		"power.windows":                   {float64(c.windows), "count"},
		"power.overhead_ratio":            {powerRatio, "1"},
		"noc.wire_bytes":                  {float64(c.wireBytes), "B"},
		"npu.hbm_comm_bytes":              {float64(c.hbmBytes), "B"},
		"bench.trace_overhead_s":          {overhead.Seconds(), "s"},
	}
	for _, l := range shareLayers {
		out[l+".cpu_share"] = metric{shares[l], "1"}
	}
	for _, l := range []string{"scenario", "runner", "system", "graph", "exper", "des", "collectives", "trace", "power"} {
		out[l+".self_ms"] = metric{ms(rec.self(l)), "ms"}
	}
	return out, hexSum(doc.Bytes()), nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
