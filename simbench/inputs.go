package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"acesim/internal/graph"
	"acesim/internal/scenario"
	"acesim/internal/workload"
)

// A workload is the set of generated scenario files one benchmark run
// pushes through acesim, in run order.
type workloadSpec struct {
	name string
	// traced runs each file through `acesim trace` (span recording,
	// breakdown, Chrome export) instead of `acesim scenario run`.
	traced bool
	files  []string
	// twins are DES copies of files (same units, engine "des") whose
	// results the hybrid engine must reproduce exactly; empty except on
	// hybrid-sweep.
	twins []string
}

var workloadNames = []string{"des-sweep", "hybrid-sweep", "trace-power"}

// jitter draws a size within ±10% of base, rounded down to a multiple of
// quantum. The seed moves sizes only inside these fixed strata; unit
// counts and grid order never depend on it, so every seed costs about
// the same and the figures stay comparable across seeds.
func jitter(rng *rand.Rand, base, quantum int64) int64 {
	v := int64(float64(base) * (0.9 + 0.2*rng.Float64()))
	v -= v % quantum
	if v < quantum {
		v = quantum
	}
	return v
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// genInputs writes the workload's scenario files (and the lowered GNMT
// graph the sweeps reference) into dir. The same seed writes the same
// bytes. lower wraps the graph.FromModel call so a traced run can time
// it.
func genInputs(name string, seed uint64, dir string, lower func(func() error) error) (*workloadSpec, error) {
	rng := rand.New(rand.NewPCG(seed, 0x51b3e7c))
	// Draw every stratum up front, in a fixed order, so each file's
	// sizes depend only on the seed and never on which workload runs.
	arBytes := []int64{jitter(rng, 2*mib, 64*kib), jitter(rng, 8*mib, 64*kib), jitter(rng, 32*mib, 64*kib)}
	a2aBytes := []int64{jitter(rng, 1*mib, 64*kib), jitter(rng, 4*mib, 64*kib)}
	streamAR, streamA2A := jitter(rng, 8*mib, 64*kib), jitter(rng, 2*mib, 64*kib)
	fig4Bytes := jitter(rng, 10*mib, 64*kib)
	gemm := []int{int(jitter(rng, 512, 8)), int(jitter(rng, 2000, 8))}
	emb := []int{int(jitter(rng, 1000, 10)), int(jitter(rng, 10000, 10))}
	tenantAR, tenantA2A := jitter(rng, 8*mib, 64*kib), jitter(rng, 4*mib, 64*kib)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &workloadSpec{name: name}
	write := func(file string, sc *scenario.Scenario) (string, error) {
		path := filepath.Join(dir, file)
		b, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			return "", err
		}
		return path, os.WriteFile(path, append(b, '\n'), 0o644)
	}
	gt := func(metric string) scenario.Assertion {
		return scenario.Assertion{Metric: metric, Op: ">", Value: 0}
	}

	// The sweeps shared by des-sweep and hybrid-sweep.
	sweeps := func(engine string) ([]string, error) {
		var paths []string
		grid := func(fast bool) *scenario.Platform {
			return &scenario.Platform{
				Toruses:         []string{"4x2x2", "4x4"},
				Presets:         []string{"ACE", "BaselineCommOpt"},
				FastGranularity: fast,
				Engine:          engine,
			}
		}
		p, err := write("collectives-"+engine+".json", &scenario.Scenario{
			Name:     "bench-collectives",
			Platform: grid(false),
			Jobs: []scenario.Job{
				{Kind: scenario.KindCollective, Collective: "allreduce", PayloadBytes: arBytes},
				{Kind: scenario.KindCollective, Collective: "alltoall", PayloadBytes: a2aBytes},
			},
			Assertions: []scenario.Assertion{gt("duration_us"), gt("eff_gbps_node"), gt("wire_bytes")},
		})
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
		p, err = write("training-"+engine+".json", &scenario.Scenario{
			Name:     "bench-training",
			Platform: grid(true),
			Jobs: []scenario.Job{
				{Kind: scenario.KindTraining, Workloads: []string{"resnet50", "gnmt", "dlrm"}, Iterations: 1},
			},
			Assertions: []scenario.Assertion{
				gt("iter_time_us"), gt("compute_us"),
				{Metric: "exposed_comm_frac", Op: "<=", Value: 1},
			},
		})
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
		p, err = write("graphs-"+engine+".json", &scenario.Scenario{
			Name: "bench-graphs",
			Platform: &scenario.Platform{
				Toruses: []string{"4x2x2"}, Presets: []string{"ACE"},
				FastGranularity: true, Engine: engine,
			},
			Jobs: []scenario.Job{
				{Kind: scenario.KindGraph, Graph: "gnmt_lowered.json"},
				{Kind: scenario.KindGraph, Pipeline: &scenario.PipelineSpec{
					Workload: "gnmt", Stages: 4, Microbatches: 4, Schedule: "1f1b", Iterations: 1,
				}},
			},
			Assertions: []scenario.Assertion{gt("graph_span_us"), gt("graph_compute_us")},
		})
		if err != nil {
			return nil, err
		}
		return append(paths, p), nil
	}

	switch name {
	case "des-sweep", "hybrid-sweep":
		err := lower(func() error {
			g, err := graph.FromModel(workload.GNMT(workload.GNMTBatch), graph.ModelConfig{Iterations: 1, Overlap: true}, 16)
			if err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(dir, "gnmt_lowered.json"))
			if err != nil {
				return err
			}
			if err := g.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
		if err != nil {
			return nil, fmt.Errorf("lowering GNMT: %w", err)
		}
		des, err := sweeps("des")
		if err != nil {
			return nil, err
		}
		if name == "hybrid-sweep" {
			hyb, err := sweeps("hybrid")
			if err != nil {
				return nil, err
			}
			w.files, w.twins = hyb, des
			return w, nil
		}
		// One shared-fabric pair of interleaved tenants: deep queues from
		// all-to-all traffic meeting ring all-reduce chains.
		p, err := write("multijob-des.json", &scenario.Scenario{
			Name: "bench-multijob",
			Platform: &scenario.Platform{
				Toruses: []string{"4x2x2"}, Presets: []string{"BaselineCommOpt"}, Engine: "des",
			},
			Jobs: []scenario.Job{{Kind: scenario.KindMultiJob, Jobs: []scenario.SubJob{
				{Name: "ring", Collective: "allreduce", PayloadBytes: streamAR, Repeat: 4},
				{Name: "a2a", Collective: "alltoall", PayloadBytes: streamA2A, Repeat: 4},
			}}},
			Assertions: []scenario.Assertion{{Metric: "job_slowdown_max", Op: ">=", Value: 1}},
		})
		if err != nil {
			return nil, err
		}
		w.files = append(des, p)
		return w, nil
	case "trace-power":
		w.traced = true
		// The trace block makes `scenario run` trace too, so the
		// trace_* assertions hold under both front ends.
		on := &scenario.PowerSpec{Enabled: true}
		tr := &scenario.TraceSpec{Enabled: true}
		var kernels []scenario.Kernel
		for _, n := range gemm {
			kernels = append(kernels, scenario.Kernel{GEMMN: n})
		}
		for _, b := range emb {
			kernels = append(kernels, scenario.Kernel{EmbBatch: b})
		}
		files := []struct {
			file string
			sc   *scenario.Scenario
		}{
			{"fig4.json", &scenario.Scenario{
				Name:  "bench-fig4",
				Power: on, Trace: tr,
				Jobs: []scenario.Job{{
					Kind: scenario.KindMicrobench, PayloadBytes: []int64{fig4Bytes}, Kernels: kernels,
				}},
				Assertions: []scenario.Assertion{
					{Metric: "slowdown", Op: ">=", Value: 1},
					gt("overlap_frac"), gt("trace_exposed_us"),
				},
			}},
			{"dlrm-power.json", &scenario.Scenario{
				Name:     "bench-dlrm-power",
				Platform: &scenario.Platform{Toruses: []string{"4x2"}, Presets: []string{"ACE", "BaselineNoOverlap"}},
				Power:    on, Trace: tr,
				Jobs: []scenario.Job{
					{Kind: scenario.KindTraining, Workloads: []string{"dlrm"}, Iterations: 1},
				},
				Assertions: []scenario.Assertion{gt("energy_total_j"), gt("peak_power_w"), gt("trace_spans")},
			}},
			{"tenants.json", &scenario.Scenario{
				Name:     "bench-tenants",
				Platform: &scenario.Platform{Toruses: []string{"4x2x2"}, Presets: []string{"ACE"}},
				Power:    on, Trace: tr,
				Jobs: []scenario.Job{{Kind: scenario.KindMultiJob, Jobs: []scenario.SubJob{
					{Name: "ring", Collective: "allreduce", PayloadBytes: tenantAR, Repeat: 4, Placement: "4x1x2@0,0,0"},
					{Name: "a2a", Collective: "alltoall", PayloadBytes: tenantA2A, Repeat: 4, Placement: "4x1x2@0,1,0"},
				}}},
				// Disjoint partitions share nothing: each tenant runs at
				// exactly its solo speed.
				Assertions: []scenario.Assertion{
					{Metric: "job_slowdown_max", Op: "==", Value: 1},
					{Metric: "job_slowdown_min", Op: "==", Value: 1},
					gt("energy_total_j"),
				},
			}},
		}
		for _, f := range files {
			p, err := write(f.file, f.sc)
			if err != nil {
				return nil, err
			}
			w.files = append(w.files, p)
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
