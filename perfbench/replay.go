package main

import (
	"errors"
	"fmt"
	"math"

	"boresight/internal/canbus"
	"boresight/internal/core"
	"boresight/internal/fault"
	"boresight/internal/geom"
	"boresight/internal/imu"
	"boresight/internal/link"
	"boresight/internal/serial"
	"boresight/internal/system"
)

// replayer re-drives a scenario through the same public calls
// system.Runner.RunInto makes — imu.NewDMU/NewACC/Reset/Sample,
// Profile.At, Vibration.At, core.New/Reset/StepDegraded, and on linked
// runs the CAN, bridge, ACC-serial and fault-channel codecs and the
// link supervisors — with a span around each call. It re-drives
// uncalibrated runs only, which is every workload's spec. Its
// run objects persist across scenarios exactly as a Runner's do, so
// resets are measured as the serving path pays them. A replay must
// reproduce RunInto's result bit for bit, or the ledger would be
// measuring a different program.
type replayer struct {
	tr                   *tracer
	dmu                  *imu.DMU
	acc                  *imu.ACC
	est                  *core.Estimator
	bridge               link.BridgeParser
	accParse             link.ACCParser
	traffic              []byte // every byte offered to the fault channels
	resyncs, framingErrs int64
	offered, delivered   int64 // packets
	dropouts, reconfigs  int64
	ber                  berTally
}

var errUnsupported = errors.New("replay: configuration uses a path the replayer does not re-drive")

// run replays cfg as scenario id and compares the outcome with want,
// the result RunInto produced for the same configuration.
func (r *replayer) run(id int64, cfg system.Config, want *system.Result) error {
	if cfg.UseOdometry || cfg.BumpAt > 0 || cfg.NoiseDriftAt > 0 || cfg.LinkFaultProb > 0 || cfg.EstimateStride > 0 ||
		cfg.Calibrate {
		return errUnsupported
	}
	tr := r.tr
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 100
	}
	root := tr.begin("replay.scenario", -1, id)
	defer tr.end(root)

	sp := tr.begin("imu.reset", root, id)
	if r.dmu == nil {
		r.dmu = imu.NewDMU(cfg.DMU, cfg.Seed)
		r.acc = imu.NewACC(cfg.ACC, cfg.Seed+1)
	} else {
		r.dmu.Reset(cfg.DMU, cfg.Seed)
		r.acc.Reset(cfg.ACC, cfg.Seed+1)
	}
	tr.end(sp)
	sp = tr.begin("core.reset", root, id)
	if r.est == nil {
		r.est = core.New(cfg.Filter)
	} else if err := r.est.Reset(cfg.Filter); err != nil {
		tr.end(sp)
		return err
	}
	tr.end(sp)
	est := r.est

	dt := 1 / cfg.SampleRate
	n := samples(cfg)
	r.bridge.Reset()
	r.accParse.Reset()
	seq := byte(0)
	var chDMU, chACC *fault.Channel
	var supDMU, supACC *fault.Supervisor
	if cfg.UseLinks {
		supDMU = fault.NewSupervisor(cfg.FaultProfile.StaleThreshold())
		supACC = fault.NewSupervisor(cfg.FaultProfile.StaleThreshold())
		if cfg.FaultProfile.Enabled() {
			chDMU = fault.NewChannel(cfg.FaultProfile, cfg.Seed+61)
			chACC = fault.NewChannel(cfg.FaultProfile, cfg.Seed+62)
		}
	}
	var links system.LinkStats
	var heldFb geom.Vec3
	var heldAx, heldAy float64
	heldFbValid, heldACCValid := false, false
	walkScale := cfg.DegradedWalkScale
	if walkScale <= 0 {
		walkScale = 10
	}
	nominal := cfg.Filter
	inDegraded := false

	for i := 0; i < n; i++ {
		t := float64(i) * dt
		sp := tr.begin("traj.at", root, id)
		st := cfg.Profile.At(t)
		tr.end(sp)
		var vib [3]float64
		if cfg.Vibrate {
			sp = tr.begin("traj.vibration", root, id)
			vib = cfg.Vibration.At(t, st.Vel.Norm())
			tr.end(sp)
		}
		sp = tr.begin("imu.dmu_sample", root, id)
		ds := r.dmu.Sample(st, vib)
		tr.end(sp)
		sp = tr.begin("imu.acc_sample", root, id)
		as := r.acc.Sample(st, vib)
		tr.end(sp)

		fb := ds.Accel
		ax, ay := as.FX, as.FY
		quality := core.QualityFresh
		if cfg.UseLinks {
			lfb, lax, lay, dmuOK, accOK, err := r.throughLinks(ds, as, cfg.ACC.Codec, &seq, &links, chDMU, chACC, root, id)
			if err != nil {
				return err
			}
			sp = tr.begin("fault.observe", root, id)
			dmuSt := supDMU.Observe(dmuOK)
			accSt := supACC.Observe(accOK)
			tr.end(sp)
			if cfg.ReconfigureOnFault {
				if !inDegraded && (dmuSt == fault.Stale || accSt == fault.Stale) {
					sp = tr.begin("core.reconfigure", root, id)
					degraded, err := est.ScaleProcessNoise(walkScale)
					if err == nil {
						err = est.Reconfigure(degraded)
					}
					tr.end(sp)
					if err != nil {
						return err
					}
					inDegraded = true
				} else if inDegraded && dmuSt == fault.Fresh && accSt == fault.Fresh {
					sp = tr.begin("core.reconfigure", root, id)
					err := est.Reconfigure(nominal)
					tr.end(sp)
					if err != nil {
						return err
					}
					inDegraded = false
				}
			}
			if dmuOK {
				fb = lfb
				heldFb, heldFbValid = lfb, true
			} else {
				links.DroppedDMU++
			}
			if accOK {
				ax, ay = lax, lay
				heldAx, heldAy, heldACCValid = lax, lay, true
			} else {
				links.DroppedACC++
			}
			switch {
			case dmuSt == fault.Stale || accSt == fault.Stale,
				!dmuOK && !heldFbValid, !accOK && !heldACCValid:
				quality = core.QualityDropout
			case dmuSt == fault.Held || accSt == fault.Held:
				quality = core.QualityHeld
				if !dmuOK {
					fb = heldFb
				}
				if !accOK {
					ax, ay = heldAx, heldAy
				}
			}
		}
		name := "core.step"
		switch quality {
		case core.QualityHeld:
			name = "core.step_held"
		case core.QualityDropout:
			name = "core.predict"
		}
		sp = tr.begin(name, root, id)
		_, err := est.StepDegraded(dt, fb, ds.Rate, ax, ay, quality)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}

	got := est.Misalignment()
	var diffs []string
	if !sameFloat(got.Roll, want.Estimated.Roll) || !sameFloat(got.Pitch, want.Estimated.Pitch) || !sameFloat(got.Yaw, want.Estimated.Yaw) {
		diffs = append(diffs, fmt.Sprintf("Estimated %+v vs %+v", got, want.Estimated))
	}
	if est.Steps() != want.Steps {
		diffs = append(diffs, fmt.Sprintf("Steps %d vs %d", est.Steps(), want.Steps))
	}
	if est.Gated() != want.Gated {
		diffs = append(diffs, fmt.Sprintf("Gated %d vs %d", est.Gated(), want.Gated))
	}
	if est.Dropouts() != want.DropoutEpochs || est.Reconfigs() != want.Reconfigs {
		diffs = append(diffs, fmt.Sprintf("dropouts/reconfigs %d/%d vs %d/%d", est.Dropouts(), est.Reconfigs(), want.DropoutEpochs, want.Reconfigs))
	}
	if cfg.UseLinks {
		if links != want.LinkStats {
			diffs = append(diffs, fmt.Sprintf("LinkStats %+v vs %+v", links, want.LinkStats))
		}
		for _, l := range []struct {
			ch   *fault.Channel
			sup  *fault.Supervisor
			want system.StreamStats
		}{{chDMU, supDMU, want.DMUStream}, {chACC, supACC, want.ACCStream}} {
			var s system.StreamStats
			if l.ch != nil {
				s.Channel = l.ch.Stats()
				r.ber.add(s.Channel, cfg.FaultProfile)
				r.framingErrs += int64(s.Channel.FramingErrors)
			}
			s.Good, s.Held, s.Stale, s.LongestOutage = l.sup.Health()
			if s != l.want {
				diffs = append(diffs, fmt.Sprintf("stream %+v vs %+v", s, l.want))
			}
		}
		_, _, _, rs := r.bridge.Stats()
		_, _, as := r.accParse.Stats()
		r.resyncs += int64(rs + as)
		r.offered += int64(2 * n)
		r.delivered += int64(2*n - links.DroppedDMU - links.DroppedACC)
		r.dropouts += int64(est.Dropouts())
		r.reconfigs += int64(est.Reconfigs())
	}
	if diffs != nil {
		return fmt.Errorf("replay differs from RunInto: %v", diffs)
	}
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// throughLinks re-drives one epoch's wire path with public calls:
// CAN frame bits, CAN decode, the bridge byte stream through the DMU
// fault channel into the bridge parser, and the ACC packet through the
// ACC fault channel into the ACC parser.
func (r *replayer) throughLinks(ds imu.DMUSample, as imu.ACCSample, codec imu.DutyCycleCodec, seq *byte,
	stats *system.LinkStats, chDMU, chACC *fault.Channel, root int32, id int64,
) (fb geom.Vec3, ax, ay float64, dmuOK, accOK bool, err error) {
	tr := r.tr
	sp := tr.begin("canbus.encode", root, id)
	frame := link.EncodeDMUAccels(*seq, ds.Accel)
	*seq++
	bits, err := frame.Encode()
	tr.end(sp)
	if err != nil {
		return fb, 0, 0, false, false, err
	}
	stats.CANFrames++
	stats.CANBits += len(bits)
	sp = tr.begin("canbus.decode", root, id)
	rx, _, err := canbus.Decode(bits)
	tr.end(sp)
	if err != nil {
		return fb, 0, 0, false, false, err
	}
	sp = tr.begin("link.bridge", root, id)
	wire := link.BridgeEncode(rx)
	tr.end(sp)
	wire = r.transmit(chDMU, wire, root, id)
	sp = tr.begin("link.bridge", root, id)
	var decoded *link.DMUAccels
	for _, b := range wire {
		stats.BridgeByts++
		if f, ok := r.bridge.Push(b); ok {
			v, err := link.DecodeDMUFrame(f)
			if err != nil {
				continue
			}
			if a, ok := v.(*link.DMUAccels); ok {
				decoded = a
			}
		}
	}
	tr.end(sp)
	if decoded != nil {
		fb = decoded.Accel
		dmuOK = true
	}

	sp = tr.begin("link.acc", root, id)
	c := codec
	if c.T2Counts == 0 {
		c.T2Counts = 4096
	}
	pkt := link.EncodeACC(link.ACCPacket{T1X: uint16(c.Encode(as.FX)), T1Y: uint16(c.Encode(as.FY)), T2: uint16(c.T2Counts)})
	tr.end(sp)
	pkt = r.transmit(chACC, pkt, root, id)
	sp = tr.begin("link.acc", root, id)
	var got *link.ACCPacket
	for _, b := range pkt {
		if p, ok := r.accParse.Push(b); ok {
			got = &p
		}
	}
	if got != nil {
		stats.ACCPackets++
		ax = c.Decode(int(got.T1X))
		ay = c.Decode(int(got.T1Y))
		accOK = true
	}
	tr.end(sp)
	return fb, ax, ay, dmuOK, accOK, nil
}

// transmit passes bytes through a fault channel (nil: clean line) and
// records the offered traffic for the serial timing.
func (r *replayer) transmit(ch *fault.Channel, data []byte, root int32, id int64) []byte {
	if ch == nil {
		return data
	}
	r.traffic = append(r.traffic, data...)
	sp := r.tr.begin("fault.transmit", root, id)
	out := ch.Transmit(data)
	r.tr.end(sp)
	return out
}

// merge adds another replayer's link counters and traffic to r.
func (r *replayer) merge(o *replayer) {
	r.traffic = append(r.traffic, o.traffic...)
	r.resyncs += o.resyncs
	r.framingErrs += o.framingErrs
	r.offered += o.offered
	r.delivered += o.delivered
	r.dropouts += o.dropouts
	r.reconfigs += o.reconfigs
	r.ber.observed += o.ber.observed
	r.ber.mean += o.ber.mean
	r.ber.variance += o.ber.variance
}

// serialNsPerByte times the 8N1 encode and UART decode of the exact
// byte traffic the replayed links offered.
func (r *replayer) serialNsPerByte() float64 {
	if len(r.traffic) == 0 {
		return 0
	}
	t0 := nowNs()
	var dec serial.Decoder
	bits := make([]bool, 0, 2*serial.BitsPerByte)
	n := 0
	for _, b := range r.traffic {
		bits = serial.AppendByteBits(bits[:0], b)
		for _, bit := range bits {
			if _, ok, _ := dec.Push(bit); ok {
				n++
			}
		}
		dec.Push(true) // inter-byte idle bit, as the fault channel sends
	}
	el := nowNs() - t0
	if n != len(r.traffic) {
		return math.NaN()
	}
	return float64(el) / float64(len(r.traffic))
}

// berTally accumulates observed against expected line bit errors.
type berTally struct{ observed, mean, variance float64 }

func (b *berTally) add(s fault.Stats, p fault.Profile) {
	mean, sigma := expectedBitErrors(s, p)
	b.observed += float64(s.BitErrors)
	b.mean += mean
	b.variance += sigma * sigma
}

// z is the observed bit-error count's distance from the binomial mean
// in standard deviations.
func (b berTally) z() float64 {
	if b.variance == 0 {
		return 0
	}
	return (b.observed - b.mean) / math.Sqrt(b.variance)
}
