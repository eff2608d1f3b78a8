package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"boresight/internal/geom"
	"boresight/internal/system"
)

// fusionBatch is how many runs a worker takes at once; a batch's wall
// time is one latency sample. Two runs per sample halve the weight of a
// single run that a garbage collection or a host stall catches, and
// still leave ~1000 samples per run.
const fusionBatch = 2

// fusionKeepEvery spaces the run's own results that verify re-runs on
// a fresh Runner: one in fusionKeepEvery, about ten per run.
const fusionKeepEvery = 128

// fusionInstance is fusion-linked: system.Runner.RunInto called
// directly, one Runner per worker goroutine, on dynamic drives whose
// every sample crosses the faulted CAN, bridge and serial links.
type fusionInstance struct {
	cfg  config
	g    *gates
	fr   *fpgaRig
	next atomic.Int64

	mu            sync.Mutex
	ber           berTally
	results       int
	outside3Sigma int
	kept          []keptOutcome
}

// fusionOutcome is the part of a linked result the gates compare.
type fusionOutcome struct {
	steps, gated, dropouts int
	links                  system.LinkStats
	estimated              geom.Euler
}

func outcomeOf(res *system.Result) fusionOutcome {
	return fusionOutcome{res.Steps, res.Gated, res.DropoutEpochs, res.LinkStats, res.Estimated}
}

type keptOutcome struct {
	i   int
	out fusionOutcome
}

func startFusionLinked(cfg config, g *gates) (instance, error) {
	fr, err := newFPGARig(cfg, g)
	if err != nil {
		return nil, err
	}
	f := &fusionInstance{cfg: cfg, g: g, fr: fr}
	// Warm the drive profile and the link path once.
	if _, err := system.Run(linkedConfig(cfg.seed, ledgerBase-1)); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fusionInstance) rig() *fpgaRig { return f.fr }
func (f *fusionInstance) close()        {}

// check gates one linked result: every epoch either updated the filter
// or was a dropout. It also adds the result's channel counters to the
// run's bit-error tally, counts estimates outside their own 3σ, and
// keeps one result in fusionKeepEvery for verify.
func (f *fusionInstance) check(i int, cfg system.Config, res *system.Result) {
	n := samples(cfg)
	f.g.check(res.Steps+res.DropoutEpochs == n,
		"linked scenario %d: steps %d + dropouts %d of %d epochs", i, res.Steps, res.DropoutEpochs, n)
	f.mu.Lock()
	f.ber.add(res.DMUStream.Channel, cfg.FaultProfile)
	f.ber.add(res.ACCStream.Channel, cfg.FaultProfile)
	f.results++
	if !res.WithinConfidence {
		f.outside3Sigma++
	}
	if i%fusionKeepEvery == 0 {
		f.kept = append(f.kept, keptOutcome{i, outcomeOf(res)})
	}
	f.mu.Unlock()
}

// verify runs the FPGA gates, re-runs the kept results, and checks
// the calibration set.
func (f *fusionInstance) verify() error {
	f.fr.verify()
	f.mu.Lock()
	kept := f.kept
	f.kept = nil
	f.mu.Unlock()
	for _, k := range kept {
		f.checkFresh(k)
	}
	f.checkCalibration()
	return nil
}

// checkFresh is the direct runs' replay contract: a result a worker's
// reused Runner produced must equal a fresh system.Run of its spec bit
// for bit, estimate included.
func (f *fusionInstance) checkFresh(k keptOutcome) {
	res, err := system.Run(linkedConfig(f.cfg.seed, k.i))
	if err != nil {
		f.g.check(false, "linked scenario %d on a fresh Runner: %v", k.i, err)
		return
	}
	f.g.check(outcomeOf(res) == k.out,
		"linked scenario %d: reused Runner gave %+v, a fresh system.Run %+v", k.i, k.out, outcomeOf(res))
}

// The calibration set is the fault profile's first calibrationRuns
// linked runs under a seed of its own. Its outcome is a fact about the
// code, not about the run: its bit errors are gated within 3σ of the
// profile's BER (a 3σ test on whatever set a run happens to complete
// would fail 0.27% of runs on a correct channel), and its fusion
// outputs are pinned to fusion_golden.json, so a change to the
// estimates fails the run the way a change to the corrected frame
// fails the vidpipe CRC.
const (
	calibrationSeed = 1
	calibrationRuns = 24
)

// goldenRun is what fusion_golden.json pins of one calibration run.
type goldenRun struct {
	Steps    int        `json:"steps"`
	Dropouts int        `json:"dropouts"`
	EstDeg   [3]float64 `json:"est_deg"`
	Sig3Deg  [3]float64 `json:"sig3_deg"`
	Within   bool       `json:"within_3sigma"`
}

// goldenTol is how far, as a share of the golden 3σ, a calibration
// estimate and its 3σ may move: far above floating-point reordering,
// far below a change in what the filter computes.
const goldenTol = 0.01

//go:embed fusion_golden.json
var fusionGoldenJSON []byte

// calibrationSet runs the calibration set on one reused Runner.
func calibrationSet() ([]goldenRun, berTally, error) {
	var tally berTally
	var out []goldenRun
	runner := system.NewRunner()
	res := new(system.Result)
	for i := 0; i < calibrationRuns; i++ {
		cfg := linkedConfig(calibrationSeed, i)
		if err := runner.RunInto(res, cfg); err != nil {
			return nil, tally, fmt.Errorf("calibration run %d: %w", i, err)
		}
		tally.add(res.DMUStream.Channel, cfg.FaultProfile)
		tally.add(res.ACCStream.Channel, cfg.FaultProfile)
		e := res.Estimated
		out = append(out, goldenRun{
			Steps:    res.Steps,
			Dropouts: res.DropoutEpochs,
			EstDeg:   [3]float64{geom.Rad2Deg(e.Roll), geom.Rad2Deg(e.Pitch), geom.Rad2Deg(e.Yaw)},
			Sig3Deg:  res.ThreeSigmaDeg,
			Within:   res.WithinConfidence,
		})
	}
	return out, tally, nil
}

// checkCalibration runs the calibration set and gates its bit errors
// and its fusion outputs. The run's own traffic is only reported.
func (f *fusionInstance) checkCalibration() {
	got, cal, err := calibrationSet()
	if err != nil {
		f.g.check(false, "%v", err)
		return
	}
	f.checkTally(cal)
	var want []goldenRun
	if err := json.Unmarshal(fusionGoldenJSON, &want); err != nil {
		f.g.check(false, "fusion_golden.json: %v", err)
		return
	}
	checkGolden(f.g, got, want)
	outside := 0
	for _, r := range got {
		if !r.Within {
			outside++
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: fusion-linked: %d results, %d outside their own 3σ (calibration set %d of %d); bit errors %.1fσ from the BER mean (calibration set %.1fσ)\n",
		f.results, f.outside3Sigma, outside, len(got), f.ber.z(), cal.z())
}

// checkGolden gates each calibration run against its golden: one
// operation per run.
func checkGolden(g *gates, got, want []goldenRun) {
	if !g.check(len(got) == len(want), "calibration set has %d runs, fusion_golden.json %d", len(got), len(want)) {
		return
	}
	for i, w := range want {
		r := got[i]
		pass := r.Steps == w.Steps && r.Dropouts == w.Dropouts && r.Within == w.Within
		for a := 0; a < 3; a++ {
			tol := goldenTol * w.Sig3Deg[a]
			pass = pass && math.Abs(r.EstDeg[a]-w.EstDeg[a]) <= tol && math.Abs(r.Sig3Deg[a]-w.Sig3Deg[a]) <= tol
		}
		g.check(pass, "calibration run %d: got %+v, golden %+v", i, r, w)
	}
}

func (f *fusionInstance) checkTally(t berTally) {
	z := t.z()
	f.g.check(math.Abs(z) <= 3, "linked bit errors %.0f, %.1fσ from the %.0f the profile's BER predicts", t.observed, z, t.mean)
}

func (f *fusionInstance) timed(d time.Duration, tr *tracer) (phase, error) {
	workers := numWorkers()
	ph := phase{workers: workers}
	if tr != nil {
		ph.spanFrom = tr.mark()
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	lats := make([][]float64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runner := system.NewRunner()
			res := new(system.Result)
			for time.Now().Before(deadline) {
				first := int(f.next.Add(fusionBatch) - fusionBatch)
				t0 := time.Now()
				for i := first; i < first+fusionBatch; i++ {
					cfg := linkedConfig(f.cfg.seed, i)
					sp := tr.begin("system.run", -1, int64(i))
					err := runner.RunInto(res, cfg)
					tr.end(sp)
					if err != nil {
						errs[w] = err
						return
					}
					f.check(i, cfg, res)
				}
				lats[w] = append(lats[w], time.Since(t0).Seconds()*1e3)
			}
		}(w)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.latRuns = lats
	ph.ops = int64(len(ph.lat())) * fusionBatch
	return ph, errors.Join(errs...)
}

// ledger runs the two fixed ledger scenarios and returns their counts.
func (f *fusionInstance) ledger() (map[string]int64, error) {
	out := map[string]int64{}
	runner := system.NewRunner()
	res := new(system.Result)
	h := fnv.New64a()
	for j := 0; j < 2; j++ {
		cfg := linkedConfig(f.cfg.seed, ledgerBase+j)
		if err := runner.RunInto(res, cfg); err != nil {
			return nil, err
		}
		f.check(ledgerBase+j, cfg, res)
		for _, v := range []int{
			res.Steps, res.Gated, res.DropoutEpochs, res.HeldUpdates, res.Reconfigs,
			res.LinkStats.CANFrames, res.LinkStats.CANBits, res.LinkStats.ACCPackets, res.LinkStats.BridgeByts,
			res.LinkStats.DroppedDMU, res.LinkStats.DroppedACC,
		} {
			h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
		for _, v := range []float64{res.Estimated.Roll, res.Estimated.Pitch, res.Estimated.Yaw} {
			b := math.Float64bits(v)
			h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24), byte(b >> 32), byte(b >> 40), byte(b >> 48), byte(b >> 56)})
		}
		out["linked.steps"] += int64(res.Steps)
		out["linked.gated"] += int64(res.Gated)
		out["linked.dropout_epochs"] += int64(res.DropoutEpochs)
		out["linked.held_updates"] += int64(res.HeldUpdates)
		out["linked.reconfigs"] += int64(res.Reconfigs)
		out["linked.can_frames"] += int64(res.LinkStats.CANFrames)
		out["linked.acc_packets"] += int64(res.LinkStats.ACCPackets)
		out["linked.bridge_bytes"] += int64(res.LinkStats.BridgeByts)
		out["linked.dropped_dmu"] += int64(res.LinkStats.DroppedDMU)
		out["linked.dropped_acc"] += int64(res.LinkStats.DroppedACC)
		out["linked.bit_errors"] += int64(res.DMUStream.Channel.BitErrors + res.ACCStream.Channel.BitErrors)
		out["linked.framing_errors"] += int64(res.DMUStream.Channel.FramingErrors + res.ACCStream.Channel.FramingErrors)
		if !res.WithinConfidence {
			out["linked.outside_3sigma"]++
		}
	}
	out["linked.result_hash"] = int64(h.Sum64() >> 1)
	return out, nil
}

// layers replays a sample of the phase's linked scenarios through the
// public codec, fault and fusion calls, and reconciles the replayed
// stage times with the measured per-scenario worker time.
func (f *fusionInstance) layers(tr *tracer, traced, untraced phase) (metrics, error) {
	n := f.cfg.scaled(2, 1)
	cfgs := make([]system.Config, n)
	for i := range cfgs {
		cfgs[i] = linkedConfig(f.cfg.seed, i)
	}
	s, err := replaySample(tr, f.g, cfgs, 0)
	if err != nil {
		return nil, err
	}
	m := replayMetrics(s)
	m["system.run_us"] = s.directUs
	costModel(m, untraced.perOpUs(), s.stageUs)
	return m, nil
}
