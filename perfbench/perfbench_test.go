package main

import (
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"
	"time"

	"boresight/internal/fault"
	"boresight/internal/fleet"
	"boresight/internal/system"
)

var update = flag.Bool("update", false, "rewrite fusion_golden.json from the current code")

// TestUpdateFusionGolden rewrites the calibration set's golden when run
// with -update, after a change meant to alter fusion outputs:
//
//	go test -run TestUpdateFusionGolden -update
func TestUpdateFusionGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite fusion_golden.json")
	}
	got, _, err := calibrationSet()
	if err != nil {
		t.Fatal(err)
	}
	// One run per line.
	b := []byte("[\n")
	for i, r := range got {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, "  "...), line...)
		if i < len(got)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
	}
	if err := os.WriteFile("fusion_golden.json", append(b, "]\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// tiny is a smoke-test configuration: every workload at a small size.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.4, trace: trace, outDir: t.TempDir(), scale: 0.05}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program lists %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("workloads: program %v, BENCHMARK.json %v", have, names)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("workloads: program %v, BENCHMARK.json %v", have, names)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs every workload untraced and
// traced at a tiny size: each must pass every gate and print every
// metric of its mode.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(tiny(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(want))
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := run(tiny(t, "nope", false)); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// failedBy runs fn against fresh gates and returns how many operations
// it failed.
func failedBy(fn func(g *gates)) int64 {
	g := &gates{}
	fn(g)
	_, failed := g.counts()
	return failed
}

func TestServeGatesFire(t *testing.T) {
	cfg := tiny(t, "serve-short", false)
	var inst instance
	if n := failedBy(func(g *gates) {
		var err error
		if inst, err = startServeShort(cfg, g); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.timed(100*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("clean serve run failed %d operations", n)
	}
	defer inst.close()
	s := inst.(*serveInstance)
	// A served result that differs from direct system.Run.
	if n := failedBy(func(g *gates) {
		s.g = g
		if len(s.kept) == 0 {
			t.Fatal("no batch kept for the replay check")
		}
		s.kept[0].payloads[7] ^= 1
		if err := s.verify(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("corrupted served result failed %d operations, want 1", n)
	}
	// A shed scenario and a non-OK slot.
	if n := failedBy(func(g *gates) {
		s.g = g
		s.checkReply(batchReply{ok: 3, nonOK: 1, admitted: 4}, 4)
		s.checkReply(batchReply{ok: 3, admitted: 3, shed: 1}, 4)
	}); n != 3 {
		t.Errorf("non-OK and shed replies failed %d operations, want 3", n)
	}
}

func TestFusionGatesFire(t *testing.T) {
	f := &fusionInstance{cfg: tiny(t, "fusion-linked", false)}
	cfg := linkedConfig(3, 0)
	res, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := failedBy(func(g *gates) { f.g = g; f.check(0, cfg, res) }); n != 0 {
		t.Fatalf("clean linked result failed %d operations", n)
	}
	bad := *res
	bad.Steps--
	if n := failedBy(func(g *gates) { f.g = g; f.check(0, cfg, &bad) }); n != 1 {
		t.Errorf("lost epoch failed %d operations, want 1", n)
	}
	if n := failedBy(func(g *gates) { f.g = g; f.checkCalibration() }); n != 0 {
		t.Errorf("calibration set failed %d operations", n)
	}
	// A kept result that a fresh system.Run does not reproduce.
	if n := failedBy(func(g *gates) {
		f.g = g
		out := outcomeOf(res)
		out.estimated.Yaw += 1e-9
		f.checkFresh(keptOutcome{0, out})
	}); n != 1 {
		t.Errorf("corrupted kept estimate failed %d operations, want 1", n)
	}
	// A calibration estimate moved past the golden tolerance.
	got, _, err := calibrationSet()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]goldenRun(nil), got...)
	want[3].EstDeg[2] += 2 * goldenTol * want[3].Sig3Deg[2]
	if n := failedBy(func(g *gates) { checkGolden(g, got, want) }); n != 1 {
		t.Errorf("moved calibration estimate failed %d operations, want 1", n)
	}
	// Bit errors far beyond what the profile's BER predicts.
	var tally berTally
	st := res.DMUStream.Channel
	st.BitErrors *= 3
	tally.add(st, cfg.FaultProfile)
	if n := failedBy(func(g *gates) { f.g = g; f.checkTally(tally) }); n != 1 {
		t.Errorf("inflated bit errors failed %d operations, want 1", n)
	}
}

func TestReplayGateFires(t *testing.T) {
	for _, cfg := range []system.Config{linkedConfig(3, 1), mustConfig(t, bulkSpec(3, 0))} {
		want, err := system.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := &replayer{}
		if err := r.run(0, cfg, want); err != nil {
			t.Fatalf("clean replay: %v", err)
		}
		bad := *want
		bad.Gated++
		if err := r.run(1, cfg, &bad); err == nil {
			t.Error("replay accepted a result with a different Gated count")
		}
	}
	cfg := linkedConfig(3, 1)
	cfg.UseOdometry = true
	if err := (&replayer{}).run(0, cfg, &system.Result{}); err != errUnsupported {
		t.Errorf("odometry config: %v, want errUnsupported", err)
	}
}

func mustConfig(t *testing.T, sp fleet.ScenarioSpec) system.Config {
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestFPGAGatesFire(t *testing.T) {
	g := &gates{}
	rig, err := newFPGARig(tiny(t, "fpga", false), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.round(nil, 0); err != nil {
		t.Fatal(err)
	}
	rig.checkGolden(vidpipeGolden)
	if _, failed := g.counts(); failed != 0 {
		t.Fatalf("clean FPGA round failed %d operations", failed)
	}
	cases := []struct {
		name    string
		corrupt func()
	}{
		{"simulated counts", func() { rig.counts["fpgasys.instret"]++ }},
		{"reference Kalman", func() { rig.kalRef.Estimates[5]++ }},
		{"reference boresight", func() { rig.fxRef.States[5][1]++ }},
		{"frame CRC", func() { rig.vgaCRC ^= 1 }},
	}
	for _, c := range cases {
		fresh, err := newFPGARig(tiny(t, "fpga", false), &gates{})
		if err != nil {
			t.Fatal(err)
		}
		rig = fresh
		if err := rig.round(nil, 0); err != nil {
			t.Fatal(err)
		}
		c.corrupt()
		if n := failedBy(func(g *gates) {
			rig.g = g
			if err := rig.round(nil, 1); err != nil {
				t.Fatal(err)
			}
		}); n < 1 {
			t.Errorf("%s: corrupted input failed no operation", c.name)
		}
	}
	if n := failedBy(func(g *gates) { rig.g = g; rig.checkGolden(vidpipeGolden ^ 1) }); n != 1 {
		t.Errorf("wrong golden CRC failed %d operations, want 1", n)
	}
}

func TestLedgerGateFires(t *testing.T) {
	cfg := tiny(t, "fpga", false)
	a := map[string]int64{"x": 1}
	if n := failedBy(func(g *gates) { checkLedger(cfg, g, a, map[string]int64{"x": 1}, nil) }); n != 0 {
		t.Fatalf("equal ledgers failed %d operations", n)
	}
	if n := failedBy(func(g *gates) { checkLedger(cfg, g, a, map[string]int64{"x": 2}, nil) }); n != 1 {
		t.Errorf("changed count failed %d operations, want 1", n)
	}
	// The same binary and seed read a different count before.
	if n := failedBy(func(g *gates) { checkLedger(cfg, g, map[string]int64{"x": 3}, map[string]int64{"x": 3}, nil) }); n != 1 {
		t.Errorf("count differing from the previous run failed %d operations, want 1", n)
	}
}

func TestExpectedBitErrors(t *testing.T) {
	p := fault.Profile{BER: 1e-3, LineBreakLen: 10}
	mean, sigma := expectedBitErrors(fault.Stats{Bytes: 1100, Dropped: 50, Duplicated: 10, LineBreaks: 6}, p)
	// (1100 - 50 + 10 - 60) bytes of 10 line bits each.
	if mean != 10 || sigma <= 0 {
		t.Fatalf("mean %g sigma %g, want 10 and > 0", mean, sigma)
	}
}
