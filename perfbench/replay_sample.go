package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"boresight/internal/system"
)

var benchEpoch = time.Now()

func nowNs() int64 { return int64(time.Since(benchEpoch)) }

// stageNames are the replay spans the cost model sums: every layer call
// a scenario makes, without the replay loop's own glue.
var stageNames = []string{
	"imu.reset", "core.reset", "traj.at", "traj.vibration", "imu.dmu_sample", "imu.acc_sample",
	"core.step", "core.step_held", "core.predict", "core.reconfigure",
	"canbus.encode", "canbus.decode", "link.bridge", "link.acc", "fault.transmit", "fault.observe",
}

// sampleResult is what replaying one sample of configurations measured.
type sampleResult struct {
	n          int
	directUs   float64 // mean direct RunInto time per scenario
	allocBytes float64 // mean bytes RunInto allocated per scenario
	stageUs    float64 // mean sum of stage self times per scenario
	agg        map[string]layerStat
	r          *replayer
}

// replaySample runs every configuration directly through a reused
// system.Runner (span system.run), then re-drives it through a
// replayer, gating bit-for-bit agreement. Both steps run on one
// goroutine per CPU, as the workloads do: a single-threaded step would
// run with the sibling hardware thread free for other work and time a
// different machine.
func replaySample(tr *tracer, g *gates, cfgs []system.Config, idBase int64) (sampleResult, error) {
	out := sampleResult{n: len(cfgs), r: &replayer{}}
	if len(cfgs) == 0 {
		return out, nil
	}
	res := make([]*system.Result, len(cfgs))
	for i := range res {
		res[i] = new(system.Result)
	}
	workers := numWorkers()
	runners := make([]*system.Runner, workers)
	for w := range runners {
		// Warm each runner so its lazily built objects are not counted.
		runners[w] = system.NewRunner()
		if err := runners[w].RunInto(new(system.Result), cfgs[0]); err != nil {
			return out, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var direct atomic.Int64
	err := eachWorker(workers, len(cfgs), func(w, i int) error {
		sp := tr.begin("system.run", -1, idBase+int64(i))
		t0 := nowNs()
		err := runners[w].RunInto(res[i], cfgs[i])
		direct.Add(nowNs() - t0)
		tr.end(sp)
		return err
	})
	if err != nil {
		return out, err
	}
	runtime.ReadMemStats(&after)
	out.directUs = float64(direct.Load()) / 1e3 / float64(len(cfgs))
	out.allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(cfgs))

	from := tr.mark()
	reps := make([]*replayer, workers)
	for w := range reps {
		reps[w] = &replayer{tr: tr}
	}
	err = eachWorker(workers, len(cfgs), func(w, i int) error {
		err := reps[w].run(idBase+int64(i), cfgs[i], res[i])
		if err == errUnsupported {
			return err
		}
		g.check(err == nil, "scenario %d: %v", idBase+int64(i), err)
		return nil
	})
	if err != nil {
		return out, err
	}
	for _, r := range reps {
		out.r.merge(r)
	}
	out.agg = tr.aggregate(from)
	var stage int64
	for _, s := range stageNames {
		stage += out.agg[s].self
	}
	out.stageUs = float64(stage) / 1e3 / float64(len(cfgs))
	return out, nil
}

// replayMetrics turns a replayed sample into per-layer metrics. A layer
// the sample never called is left out, for a reference run to supply.
func replayMetrics(s sampleResult) metrics {
	m := metrics{"replay.scenarios": float64(s.n)}
	perCall := map[string]struct {
		metric string
		scale  float64
	}{
		"imu.reset":        {"imu.reset_us", 1e-3},
		"core.reset":       {"core.reset_us", 1e-3},
		"traj.at":          {"traj.at_ns", 1},
		"traj.vibration":   {"traj.vibration_ns", 1},
		"imu.dmu_sample":   {"imu.dmu_sample_ns", 1},
		"imu.acc_sample":   {"imu.acc_sample_ns", 1},
		"core.step":        {"core.step_ns", 1},
		"core.step_held":   {"core.step_held_ns", 1},
		"core.predict":     {"core.predict_ns", 1},
		"core.reconfigure": {"core.reconfigure_ns", 1},
		"canbus.encode":    {"canbus.encode_ns", 1},
		"canbus.decode":    {"canbus.decode_ns", 1},
		"fault.observe":    {"fault.observe_ns", 1},
	}
	for span, d := range perCall {
		if st := s.agg[span]; st.count > 0 {
			m[d.metric] = st.meanSelfNs() * d.scale
		}
	}
	r := s.r
	if r.offered > 0 {
		epochs := float64(r.offered / 2)
		m["link.bridge_ns"] = float64(s.agg["link.bridge"].self) / epochs
		m["link.acc_ns"] = float64(s.agg["link.acc"].self) / epochs
		m["link.delivered_ratio"] = float64(r.delivered) / float64(r.offered)
		m["link.resyncs"] = float64(r.resyncs)
		m["link.dropout_epochs"] = float64(r.dropouts)
		m["link.reconfigs"] = float64(r.reconfigs)
		m["system.alloc_bytes_per_run"] = s.allocBytes
	}
	if len(r.traffic) > 0 {
		m["fault.transmit_ns_per_byte"] = float64(s.agg["fault.transmit"].self) / float64(len(r.traffic))
		m["serial.ns_per_byte"] = r.serialNsPerByte()
		m["link.framing_errors"] = float64(r.framingErrs)
		m["fault.ber_z"] = r.ber.z()
	}
	return m
}

// eachWorker runs fn(w, i) for i in [0, n) on workers goroutines, item i
// on goroutine i % workers, and returns the first errors joined.
func eachWorker(workers, n int, fn func(w, i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if errs[w] = fn(w, i); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}
