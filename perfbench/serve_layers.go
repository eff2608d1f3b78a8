package main

import (
	"boresight/internal/fleet"
	"boresight/internal/system"
)

// layers derives the serving ledger from a traced phase: the wire codec
// per item, the server's admission counts, the probe's queue wait over
// its solo latency, a bit-exact replay of a sample of the served specs
// (the traj, imu and core rows), and the cost model that sets the
// replayed stage times against the measured per-scenario time.
func (s *serveInstance) layers(tr *tracer, traced, untraced phase) (metrics, error) {
	m := metrics{}
	agg := tr.aggregate(traced.spanFrom)
	if traced.encoded > 0 {
		m["fleet.encode_ns"] = float64(agg["fleet.encode"].self) / float64(traced.encoded)
	}
	if traced.decoded > 0 {
		m["fleet.decode_ns"] = float64(agg["fleet.decode"].self) / float64(traced.decoded)
	}

	// Queue wait: traced latency over the median latency of the same
	// kind of batch served alone.
	solo, err := s.soloMs()
	if err != nil {
		return nil, err
	}
	var wait []float64
	for _, l := range traced.lat() {
		wait = append(wait, l-solo)
	}
	m["pool.probe_wait_ms_p50"] = quantile(wait, 0.50)
	m["pool.probe_wait_ms_p99"] = quantile(wait, 0.99)
	if s.drive {
		s.mu.Lock()
		late := append([]float64(nil), s.genLateMs...)
		s.mu.Unlock()
		m["probe.gen_late_ms_p99"] = quantile(late, 0.99)
	}

	st := s.srv.Stats()
	s.mu.Lock()
	m["fleet.admitted"] = float64(st.Admitted)
	m["fleet.shed"] = float64(st.Shed)
	m["fleet.nonok"] = float64(s.nonOK)
	m["fleet.telemetry_frames"] = float64(s.telemetry)
	s.mu.Unlock()
	m["pool.peak_inflight"] = float64(st.PeakInflight)
	m["pool.tenants"] = float64(st.Tenants)

	// Replay: the first specs of the phases, direct and re-driven.
	var main, probe sampleResult
	if s.drive {
		if main, err = replaySpecs(tr, s.g, bulkSpec, s.cfg.seed, s.cfg.scaled(4, 1), 0); err != nil {
			return nil, err
		}
		if probe, err = replaySpecs(tr, s.g, probeSpec, s.cfg.seed, s.cfg.scaled(16, 2), 1<<20); err != nil {
			return nil, err
		}
	} else if main, err = replaySpecs(tr, s.g, shortSpec, s.cfg.seed, s.cfg.scaled(64, 4), 0); err != nil {
		return nil, err
	}
	m.fill(replayMetrics(main))
	m["system.run_us"] = main.directUs

	// Served against direct per-scenario time, and the cost model.
	ops := untraced.ops + untraced.probeOps
	workerUs := untraced.elapsed.Seconds() * 1e6 * float64(untraced.workers)
	directUs := float64(untraced.ops)*main.directUs + float64(untraced.probeOps)*probe.directUs
	m["fleet.overhead_us"] = (workerUs - directUs) / float64(ops)
	stageUs := (float64(untraced.ops)*main.stageUs + float64(untraced.probeOps)*probe.stageUs) / float64(ops)
	if traced.encoded > 0 {
		stageUs += (m["fleet.encode_ns"]*float64(traced.encoded) + m["fleet.decode_ns"]*float64(traced.decoded)) /
			float64(traced.ops+traced.probeOps) / 1e3
	}
	costModel(m, workerUs/float64(ops), stageUs)
	return m, nil
}

// soloMs is the median latency of batches served with nothing else
// queued: serve-short batches on one connection, or probe batches.
func (s *serveInstance) soloMs() (float64, error) {
	var lats []float64
	n := s.cfg.scaled(32, 4)
	for b := 0; b < n; b++ {
		var specs []fleet.ScenarioSpec
		if s.drive {
			for j := 0; j < probeBatch; j++ {
				specs = append(specs, probeSpec(s.cfg.seed, b*probeBatch+j))
			}
		} else {
			for j := 0; j < shortBatch; j++ {
				specs = append(specs, shortSpec(s.cfg.seed, b*shortBatch+j))
			}
		}
		rep, err := s.conns[1].roundTrip(specs, false, nil, -1)
		if err != nil {
			return 0, err
		}
		s.checkReply(rep, len(specs))
		lats = append(lats, rep.ended.Sub(rep.sent).Seconds()*1e3)
	}
	return median(lats), nil
}

// replaySpecs replays specs 0..n-1 of one generator.
func replaySpecs(tr *tracer, g *gates, gen func(int64, int) fleet.ScenarioSpec, seed int64, n int, idBase int64) (sampleResult, error) {
	cfgs := make([]system.Config, n)
	for i := range cfgs {
		cfg, err := gen(seed, i).Config()
		if err != nil {
			return sampleResult{}, err
		}
		cfgs[i] = cfg
	}
	return replaySample(tr, g, cfgs, idBase)
}
