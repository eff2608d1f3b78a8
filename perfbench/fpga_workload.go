package main

import "time"

// fpgaInstance is the fpga workload: FPGA rounds for the whole run.
type fpgaInstance struct {
	r *fpgaRig
}

func startFPGA(cfg config, g *gates) (instance, error) {
	rig, err := newFPGARig(cfg, g)
	if err != nil {
		return nil, err
	}
	return &fpgaInstance{r: rig}, nil
}

func (f *fpgaInstance) rig() *fpgaRig { return f.r }
func (f *fpgaInstance) close()        {}
func (f *fpgaInstance) verify() error { f.r.verify(); return nil }

// ledger runs one round; every round compares its counts with the
// first round's.
func (f *fpgaInstance) ledger() (map[string]int64, error) {
	if err := f.r.round(nil, -1); err != nil {
		return nil, err
	}
	return f.r.ledger(), nil
}

func (f *fpgaInstance) timed(d time.Duration, tr *tracer) (phase, error) {
	ph := phase{workers: len(f.r.lanes)}
	if tr != nil {
		ph.spanFrom = tr.mark()
	}
	t0 := time.Now()
	lat, err := f.r.rounds(d, 1, tr)
	ph.elapsed = time.Since(t0)
	ph.latRuns = [][]float64{lat}
	ph.ops = int64(len(lat))
	return ph, err
}

// layers adds the round's stage spans and the cost model: the measured
// round time against the sum of its stages.
func (f *fpgaInstance) layers(tr *tracer, traced, untraced phase) (metrics, error) {
	m, err := f.r.layers(tr)
	if err != nil {
		return nil, err
	}
	agg := tr.aggregate(traced.spanFrom)
	m["affine.fixed_ms"] = agg["affine.fixed"].meanSelfNs() / 1e6
	rounds := float64(agg["fpga.round"].count)
	var stages float64
	for _, s := range []string{"fpgasys.new", "fpgasys.run", "sabre.kalman", "sabre.boresight", "frame.correct", "video.checksum"} {
		stages += float64(agg[s].total) / rounds / 1e3
	}
	costModel(m, median(untraced.lat())*1e3, stages)
	return m, nil
}
