package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// def names one reported metric and its unit. The lists below are the
// contract with BENCHMARK.json: TestMetricListsMatchBenchmarkJSON holds
// them equal.
type def struct{ name, unit string }

// endToEnd is printed by every untraced run of every workload.
var endToEnd = []def{
	{"scenarios_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"cosim_mcycles_per_s", "Mcycle/s"},
	{"sabre_kalman_update_us", "us"},
	{"sabre_boresight_update_us", "us"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer is printed by every traced run of every workload. A layer a
// workload does not reach is measured on a small reference run of the
// workload that does (see tracedRun).
var perLayer = []def{
	{"imu.reset_us", "us"},
	{"core.reset_us", "us"},
	{"traj.at_ns", "ns"},
	{"traj.vibration_ns", "ns"},
	{"imu.dmu_sample_ns", "ns"},
	{"imu.acc_sample_ns", "ns"},
	{"core.step_ns", "ns"},
	{"core.step_held_ns", "ns"},
	{"core.predict_ns", "ns"},
	{"core.reconfigure_ns", "ns"},
	{"replay.scenarios", "count"},
	{"system.run_us", "us"},
	{"fleet.overhead_us", "us"},
	{"fleet.encode_ns", "ns"},
	{"fleet.decode_ns", "ns"},
	{"fleet.admitted", "count"},
	{"fleet.shed", "count"},
	{"fleet.nonok", "count"},
	{"fleet.telemetry_frames", "count"},
	{"pool.probe_wait_ms_p50", "ms"},
	{"pool.probe_wait_ms_p99", "ms"},
	{"pool.peak_inflight", "count"},
	{"pool.tenants", "count"},
	{"probe.gen_late_ms_p99", "ms"},
	{"canbus.encode_ns", "ns"},
	{"canbus.decode_ns", "ns"},
	{"link.bridge_ns", "ns"},
	{"link.acc_ns", "ns"},
	{"serial.ns_per_byte", "ns"},
	{"fault.transmit_ns_per_byte", "ns"},
	{"fault.observe_ns", "ns"},
	{"fault.ber_z", "sigma"},
	{"system.alloc_bytes_per_run", "B"},
	{"link.delivered_ratio", "ratio"},
	{"link.resyncs", "count"},
	{"link.framing_errors", "count"},
	{"link.dropout_epochs", "count"},
	{"link.reconfigs", "count"},
	{"sabre.ns_per_instr.ref.kalman", "ns"},
	{"sabre.ns_per_instr.fast.kalman", "ns"},
	{"sabre.ns_per_instr.compiled.kalman", "ns"},
	{"sabre.ns_per_instr.ref.boresight", "ns"},
	{"sabre.ns_per_instr.fast.boresight", "ns"},
	{"sabre.ns_per_instr.compiled.boresight", "ns"},
	{"sabre.setup_us", "us"},
	{"sabre.batch_ns_per_op", "ns"},
	{"sabre.cycles_per_update.kalman", "cycles"},
	{"sabre.cycles_per_update.boresight", "cycles"},
	{"sabre.instret_per_update.kalman", "instr"},
	{"sabre.instret_per_update.boresight", "instr"},
	{"sabre.kernel_dispatch_ratio", "ratio"},
	{"sabre.intrinsic_calls", "count"},
	{"hcsim.ns_per_tick", "ns"},
	{"fpgasys.instret", "count"},
	{"fpgasys.frames_out", "count"},
	{"fpgasys.buffer_swaps", "count"},
	{"fpgasys.control_seq", "count"},
	{"video.render_ms", "ms"},
	{"affine.fixed_ms", "ms"},
	{"affine.pipeline_cycles_per_frame", "cycles"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"model.measured_us", "us"},
	{"model.stage_sum_us", "us"},
	{"model.residual_pct", "%"},
}

// metrics collects measured values by name.
type metrics map[string]float64

// fill copies every value of src whose name m does not have yet.
func (m metrics) fill(src metrics) {
	for k, v := range src {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
}

// missing reports whether any of names is absent from m.
func (m metrics) missing(names []string) bool {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return true
		}
	}
	return false
}

// gates counts operations attempted and failed. Every correctness
// check of the benchmark routes through it; the first few failure
// reasons are kept for the report.
type gates struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

func (g *gates) ok(n int64) {
	g.mu.Lock()
	g.attempted += n
	g.mu.Unlock()
}

// check counts one attempted operation, failed unless pass.
func (g *gates) check(pass bool, format string, args ...any) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !pass {
		g.failed++
		if len(g.reasons) < 20 {
			g.reasons = append(g.reasons, fmt.Sprintf(format, args...))
		}
	}
	return pass
}

func (g *gates) counts() (attempted, failed int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed
}

func (g *gates) report(w io.Writer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fmt.Fprintf(w, "perfbench: %d operations attempted, %d failed\n", g.attempted, g.failed)
	for _, r := range g.reasons {
		fmt.Fprintln(w, "perfbench: FAILED:", r)
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// costModel records the reconciliation of a measured per-operation
// time against the sum of its stages' traced times.
func costModel(m metrics, measuredUs, stageSumUs float64) {
	m["model.measured_us"] = measuredUs
	m["model.stage_sum_us"] = stageSumUs
	m["model.residual_pct"] = (measuredUs - stageSumUs) / measuredUs * 100
}
