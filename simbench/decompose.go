package main

import (
	"fmt"
	"runtime"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/exper"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
	"acesim/internal/system"
	"acesim/internal/trace"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// layerCounts are the per-layer work counts of decomposed units.
type layerCounts struct {
	// depth[n] counts engine steps taken with n events pending.
	depth                   []uint64
	events, mallocs, allocB uint64
	shadowEvents            uint64
	hybridUnits, engaged    int
	wireBytes, hbmBytes     int64
	spans, windows          int
}

func (c *layerCounts) depthQuantile(q float64) float64 {
	var n uint64
	for _, v := range c.depth {
		n += v
	}
	if n == 0 {
		return 0
	}
	want := uint64(q * float64(n))
	var seen uint64
	for d, v := range c.depth {
		seen += v
		if seen > want || seen == n {
			return float64(d)
		}
	}
	return float64(len(c.depth) - 1)
}

func (c *layerCounts) depthMax() float64 {
	for d := len(c.depth) - 1; d >= 0; d-- {
		if c.depth[d] > 0 {
			return float64(d)
		}
	}
	return 0
}

// decomposer executes scenario units by calling each layer's public
// functions directly, the way the scenario runner does, with a span
// around every call and the DES engine driven one Step at a time.
type decomposer struct {
	rec *spanRec
	c   *layerCounts
}

// drive runs the engine to completion with Step, sampling the queue
// depth before each event; Engine.Run is exactly this loop without the
// sampling.
func (d decomposer) drive(s *system.System) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng := s.Eng
	d.rec.do("des.run", func() error {
		for {
			n := eng.Pending()
			if n == 0 {
				return nil
			}
			for len(d.c.depth) <= n {
				d.c.depth = append(d.c.depth, 0)
			}
			d.c.depth[n]++
			eng.Step()
		}
	})
	runtime.ReadMemStats(&m1)
	d.c.mallocs += m1.Mallocs - m0.Mallocs
	d.c.allocB += m1.TotalAlloc - m0.TotalAlloc
	d.c.events += eng.Steps()
}

// finish folds the hybrid shadow back, reads the energy report and
// accumulates the modelled-work counters.
func (d decomposer) finish(s *system.System, u scenario.Unit) (*exper.PowerReport, collectives.HybridStats) {
	d.rec.do("collectives.fold", func() error { s.FoldHybrid(); return nil })
	hyb := s.RT.HybridStats()
	d.c.events += hyb.ShadowSteps
	d.c.shadowEvents += hyb.ShadowSteps
	if u.Engine != collectives.EngineDES {
		d.c.hybridUnits++
		if hyb.Engaged {
			d.c.engaged++
		}
	}
	d.c.wireBytes += s.Net.TotalWireBytes()
	for _, n := range s.Nodes {
		d.c.hbmBytes += n.CommMem.Meter.Total() + n.WriteMeter.Total()
	}
	var pr *exper.PowerReport
	d.rec.do("power.report", func() error {
		if b, ok := s.PowerReport(); ok {
			pr = &exper.PowerReport{Breakdown: b, Sampler: s.Sampler, Makespan: s.Eng.Now()}
		}
		return nil
	})
	return pr, hyb
}

// unitSpec materializes a unit's platform as the runner does.
func unitSpec(u scenario.Unit, tr *trace.Tracer) system.Spec {
	spec := system.NewSpec(u.Topo, u.Preset)
	if u.FastGranularity {
		exper.FastGranularity(&spec)
	}
	spec.Engine = u.Engine
	spec.Power = u.Power.Config(u.Preset)
	spec.Tracer = tr
	return spec
}

func (d decomposer) build(spec system.Spec) (*system.System, error) {
	var s *system.System
	err := d.rec.do("system.build", func() (err error) {
		s, err = system.Build(spec)
		return err
	})
	return s, err
}

// unit executes one work unit and returns what runner.RunOne returns
// for it.
func (d decomposer) unit(u scenario.Unit, traced bool) (runner.UnitResult, error) {
	if len(u.Events) > 0 || u.Overrides != nil {
		// The benchmark generates neither, so the decomposition leaves
		// them out.
		return runner.UnitResult{}, fmt.Errorf("unit %d: fault tracks and platform overrides are not decomposed", u.Index)
	}
	var tr *trace.Tracer
	if traced {
		tr = trace.New()
	}
	var m map[string]float64
	var pr *exper.PowerReport
	var hyb collectives.HybridStats
	var err error
	switch u.Kind {
	case scenario.KindCollective:
		m, pr, hyb, err = d.collective(u, tr)
	case scenario.KindTraining:
		m, pr, hyb, err = d.training(u, tr)
	case scenario.KindGraph:
		m, pr, hyb, err = d.graph(u, tr)
	case scenario.KindMicrobench:
		m, err = d.microbench(u, tr)
	case scenario.KindMultiJob:
		m, pr, hyb, err = d.multijob(u, tr)
	default:
		err = fmt.Errorf("unknown unit kind %q", u.Kind)
	}
	if err != nil {
		return runner.UnitResult{}, err
	}
	if tr != nil {
		d.rec.do("trace.breakdown", func() error {
			const psPerUs = 1e6
			bd := tr.Breakdown()
			m["trace_comm_us"] = float64(bd.CommTotal) / psPerUs
			m["trace_exposed_us"] = float64(bd.CommExposed) / psPerUs
			m["trace_overlapped_us"] = float64(bd.CommOverlapped) / psPerUs
			m["trace_compute_us"] = float64(bd.ComputeBusy) / psPerUs
			m["overlap_frac"] = bd.OverlapFrac
			m["trace_link_util"] = bd.LinkUtil
			m["trace_hbm_util"] = bd.HBMUtil
			m["trace_spans"] = float64(bd.Spans)
			return nil
		})
		d.c.spans += tr.NumSpans()
	}
	if pr != nil {
		b := pr.Breakdown
		m["energy_total_j"] = b.TotalJ
		m["energy_compute_j"] = b.ComputeJ
		m["energy_hbm_j"] = b.HBMJ
		m["energy_ace_j"] = b.ACEJ
		m["energy_link_j"] = b.LinkJ
		m["energy_static_j"] = b.StaticJ
		m["avg_power_w"] = b.AvgW
		m["peak_power_w"] = b.PeakW
		m["energy_delay_product"] = b.EDP
		m["perf_per_watt"] = b.PerfPerWatt
		d.c.windows += pr.Sampler.Windows(pr.Makespan)
		d.rec.do("power.counters", func() error { pr.Sampler.EmitCounters(tr, pr.Makespan); return nil })
	}
	return runner.UnitResult{Unit: u, Metrics: m, Trace: tr, Power: pr, Hybrid: hyb}, nil
}

func (d decomposer) collective(u scenario.Unit, tr *trace.Tracer) (map[string]float64, *exper.PowerReport, collectives.HybridStats, error) {
	var none collectives.HybridStats
	spec := unitSpec(u, tr)
	s, err := d.build(spec)
	if err != nil {
		return nil, nil, none, err
	}
	plan := collectives.HierarchicalAllReduce(spec.Topo)
	if u.Collective == collectives.AllToAll {
		plan = collectives.DirectAllToAll(spec.Topo.N())
	}
	if err := plan.Validate(); err != nil {
		return nil, nil, none, err
	}
	cs := collectives.Spec{Kind: u.Collective, Bytes: u.Bytes, Plan: plan, Name: u.Collective.String()}
	done := 0
	colls := make([]*collectives.Collective, s.RT.Nodes())
	d.rec.do("collectives.issue", func() error {
		for i := range colls {
			colls[i] = s.RT.Issue(noc.NodeID(i), cs, func() { done++ })
		}
		return nil
	})
	d.drive(s)
	pr, hyb := d.finish(s, u)
	if done != s.RT.Nodes() {
		return nil, nil, none, fmt.Errorf("collective finished on %d/%d nodes", done, s.RT.Nodes())
	}
	var last des.Time
	for i, c := range colls {
		last = max(last, c.CompleteAt(noc.NodeID(i)))
	}
	injected := s.Net.InjectedBytes() / int64(spec.Topo.N())
	return map[string]float64{
		"duration_us":   last.Micros(),
		"eff_gbps_node": des.Rate(injected, last),
		"reads_node":    float64(s.Nodes[0].CommMem.Meter.Total()),
		"writes_node":   float64(s.Nodes[0].WriteMeter.Total()),
		"wire_bytes":    float64(s.Net.TotalWireBytes()),
	}, pr, hyb, nil
}

func (d decomposer) training(u scenario.Unit, tr *trace.Tracer) (map[string]float64, *exper.PowerReport, collectives.HybridStats, error) {
	var none collectives.HybridStats
	mdl, err := workload.ByName(u.Workload)
	if err != nil {
		return nil, nil, none, err
	}
	tc := training.DefaultConfig()
	if u.Iterations > 0 {
		tc.Iterations = u.Iterations
	}
	tc.DLRMOptimized = u.DLRMOptimized
	s, err := d.build(unitSpec(u, tr))
	if err != nil {
		return nil, nil, none, err
	}
	var l *training.Launch
	// Runner.Start lowers the model with graph.FromModel and starts the
	// graph executor on it.
	err = d.rec.do("graph.lower", func() (err error) {
		l, err = s.Runner(tc).Start(mdl)
		return err
	})
	if err != nil {
		return nil, nil, none, err
	}
	s.OnDepart(l.Cancel)
	d.drive(s)
	pr, hyb := d.finish(s, u)
	res, err := l.Result()
	if err != nil {
		return nil, nil, none, err
	}
	frac := 0.0
	if res.IterTime > 0 {
		frac = float64(res.ExposedComm) / float64(res.IterTime)
	}
	return map[string]float64{
		"iter_time_us":      res.IterTime.Micros(),
		"compute_us":        res.TotalCompute.Micros(),
		"exposed_us":        res.ExposedComm.Micros(),
		"exposed_comm_frac": frac,
		"collectives":       float64(res.Collectives),
	}, pr, hyb, nil
}

func (d decomposer) graph(u scenario.Unit, tr *trace.Tracer) (m map[string]float64, pr *exper.PowerReport, hyb collectives.HybridStats, err error) {
	var g *graph.Graph
	err = d.rec.do("graph.lower", func() error {
		if u.GraphFile != "" {
			if g, err = graph.Load(u.GraphFile); err != nil {
				return err
			}
			if g.Ranks != u.Topo.N() {
				return fmt.Errorf("graph %s targets %d ranks, not %d", u.GraphFile, g.Ranks, u.Topo.N())
			}
			return nil
		}
		p := u.Pipeline
		mdl, err := workload.ByName(p.Workload)
		if err != nil {
			return err
		}
		sched, err := graph.ParsePipeSchedule(p.Schedule)
		if err != nil {
			return err
		}
		g, err = graph.Pipeline(graph.PipelineConfig{
			Model: mdl, Ranks: u.Topo.N(), Stages: p.Stages,
			Microbatches: p.Microbatches, Schedule: sched, Iterations: p.Iterations,
		})
		return err
	})
	if err != nil {
		return nil, nil, hyb, err
	}
	s, err := d.build(unitSpec(u, tr))
	if err != nil {
		return nil, nil, hyb, err
	}
	// The runtime reports an asymmetric collective in a graph by
	// panicking; turn that into the unit's error as exper.RunGraph does.
	defer func() {
		if r := recover(); r != nil {
			m, pr, err = nil, nil, fmt.Errorf("graph %q: %v", g.Name, r)
		}
	}()
	var run *graph.Run
	err = d.rec.do("graph.start", func() (err error) {
		run, err = s.Executor().Start(g)
		return err
	})
	if err != nil {
		return nil, nil, hyb, err
	}
	s.OnDepart(run.Cancel)
	d.drive(s)
	pr, hyb = d.finish(s, u)
	res, err := run.Result()
	if err != nil {
		return nil, nil, hyb, err
	}
	frac := 0.0
	if res.Span > 0 {
		frac = float64(res.Exposed()) / float64(res.Span)
	}
	return map[string]float64{
		"graph_span_us":      res.Span.Micros(),
		"graph_compute_us":   res.MaxComputeBusy().Micros(),
		"graph_exposed_us":   res.Exposed().Micros(),
		"graph_exposed_frac": frac,
	}, pr, hyb, nil
}

// microbench measures the Section III unit through exper, whose fixed
// switch platform is not exported: the kernel-free baseline, then the
// overlapped run.
func (d decomposer) microbench(u scenario.Unit, tr *trace.Tracer) (map[string]float64, error) {
	var k exper.Fig4Kernel
	if u.Kernel.GEMMN > 0 {
		k = exper.GEMMKernel(u.Kernel.GEMMN)
	} else {
		k = exper.EmbLookupKernel(u.Kernel.EmbBatch)
	}
	var alone, over des.Time
	err := d.rec.do("exper.fig4", func() (err error) {
		if alone, err = exper.Fig4Measure(nil, u.Bytes); err != nil {
			return err
		}
		over, _, err = exper.Fig4MeasureTrace(&k, u.Bytes, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	base := float64(alone)
	return map[string]float64{
		"alone_us":   des.Time(base).Micros(),
		"overlap_us": over.Micros(),
		"slowdown":   float64(over) / base,
	}, nil
}

// multijob co-runs the sub-jobs through exper.Interference, which
// builds the shared or partitioned fabric (system.BuildMulti), runs the
// solo baselines and the co-run.
func (d decomposer) multijob(u scenario.Unit, tr *trace.Tracer) (map[string]float64, *exper.PowerReport, collectives.HybridStats, error) {
	var none collectives.HybridStats
	spec := unitSpec(u, tr)
	arb, err := collectives.ParseArbitration(u.Arbitration)
	if err != nil {
		return nil, nil, none, err
	}
	spec.Coll.Arb = arb
	jobs := make([]exper.InterferenceJob, len(u.SubJobs))
	for i, sj := range u.SubJobs {
		job := exper.InterferenceJob{Name: sj.Name, StartAt: des.Micros(sj.StartAtUs)}
		if sj.Placement != "" && sj.Placement != "shared" {
			part, err := noc.ParsePartition(u.Topo, sj.Placement)
			if err != nil {
				return nil, nil, none, err
			}
			job.Part = &part
		}
		if sj.IsTraining() {
			if job.Model, err = workload.ByName(sj.Workload); err != nil {
				return nil, nil, none, err
			}
			job.Train.Iterations = sj.Iterations
		} else {
			kind, err := scenario.ParseCollective(sj.Collective)
			if err != nil {
				return nil, nil, none, err
			}
			job.Stream = exper.StreamSpec{Kind: kind, Bytes: sj.StreamBytes(), Count: sj.Repeat}
		}
		jobs[i] = job
	}
	var res exper.InterferenceResult
	err = d.rec.do("exper.interference", func() (err error) {
		res, _, err = exper.Interference(spec, jobs)
		return err
	})
	if err != nil {
		return nil, nil, none, err
	}
	out := map[string]float64{
		"job_slowdown_max": res.MaxSlowdown(),
		"job_slowdown_min": res.MinSlowdown(),
	}
	for _, j := range res.Jobs {
		out[j.Name+"_solo_us"] = j.Solo.Micros()
		out[j.Name+"_co_us"] = j.Co.Micros()
		out[j.Name+"_slowdown"] = j.Slowdown
	}
	return out, res.Power, res.Hybrid, nil
}
