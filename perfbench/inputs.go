package main

import (
	"math"

	"boresight/internal/core"
	"boresight/internal/fault"
	"boresight/internal/fleet"
	"boresight/internal/geom"
	"boresight/internal/system"
)

// Every input the program receives is generated here from the workload
// seed: input i of stream s is a pure function of (seed, s, i), so a
// client can regenerate any spec it sent in order to check its result.

// splitmix is a tiny counter-based generator (SplitMix64).
type splitmix struct{ s uint64 }

func newRand(seed int64, stream, i uint64) *splitmix {
	r := &splitmix{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream<<56 ^ i*0xBF58476D1CE4E5B9}
	r.next()
	return r
}

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// between returns a uniform value in [lo, hi).
func (r *splitmix) between(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// misDeg draws a few-degree misalignment, the paper's operating range.
func (r *splitmix) misDeg() [3]float64 {
	return [3]float64{r.between(-4, 4), r.between(-4, 4), r.between(-4, 4)}
}

// Input streams.
const (
	streamShort uint64 = iota + 1
	streamBulk
	streamProbe
	streamLinked
	streamFPGA
)

// Serving geometry.
const (
	shortTenants = 16
	shortBatch   = 64
	shortDur     = 0.2 // s: 20 fusion steps at 100 Hz
	bulkTenant   = 100
	bulkBatch    = 64
	bulkDur      = 30 // s: rounded up to one 57 s city-drive pattern
	probeTenant  = 200
	probeBatch   = 1
)

// shortSpec is serve-short scenario i: a 0.2 s uncalibrated static
// test for one of 16 tenants.
func shortSpec(seed int64, i int) fleet.ScenarioSpec {
	r := newRand(seed, streamShort, uint64(i))
	return fleet.ScenarioSpec{
		Kind:        fleet.KindStatic,
		Tenant:      uint32(r.intn(shortTenants)),
		Seed:        int64(r.next() >> 1),
		Dur:         shortDur,
		MisDeg:      r.misDeg(),
		NoCalibrate: true,
	}
}

// bulkSpec is serve-drive bulk scenario i: an uncalibrated dynamic
// drive of 5700 fusion steps. (A calibrated one adds 3000 static
// samples and makes each job ~1.6x longer, which halves the rate of
// worker-free events the probe waits for and with it the probe rate
// the run can sustain.)
func bulkSpec(seed int64, i int) fleet.ScenarioSpec {
	r := newRand(seed, streamBulk, uint64(i))
	return fleet.ScenarioSpec{
		Kind:        fleet.KindDynamic,
		Tenant:      bulkTenant,
		Seed:        int64(r.next() >> 1),
		Dur:         bulkDur,
		MisDeg:      r.misDeg(),
		NoCalibrate: true,
	}
}

// probeSpec is serve-drive probe scenario i: a short static test from
// the small tenant.
func probeSpec(seed int64, i int) fleet.ScenarioSpec {
	r := newRand(seed, streamProbe, uint64(i))
	return fleet.ScenarioSpec{
		Kind:        fleet.KindStatic,
		Tenant:      probeTenant,
		Seed:        int64(r.next() >> 1),
		Dur:         shortDur,
		MisDeg:      r.misDeg(),
		NoCalibrate: true,
	}
}

// linkedProfile is the fusion-linked wire fault model: bit errors
// through the 8N1 framing, byte drops, delivery jitter, and long line
// breaks that outlast the supervisors' hold window, so the run sees
// held epochs, dropout epochs and hot-swap reconfigurations.
var linkedProfile = fault.Profile{
	BER:           2e-4,
	DropProb:      1e-3,
	LineBreakProb: 5e-4,
	LineBreakLen:  96,
	JitterProb:    0.02,
}

// linkedDur is the fusion-linked run length: 1000 epochs at 100 Hz,
// cut from one 57 s city-drive pattern by Config.Duration.
const linkedDur = 10

// linkedConfig is fusion-linked scenario i: a dynamic drive whose every
// sample crosses the CAN, bridge and serial links through the fault
// profile, with supervisor-driven reconfiguration and adaptive R.
func linkedConfig(seed int64, i int) system.Config {
	r := newRand(seed, streamLinked, uint64(i))
	m := r.misDeg()
	cfg := system.DynamicScenario(geom.EulerDeg(m[0], m[1], m[2]), linkedDur, int64(r.next()>>1))
	cfg.Duration = linkedDur
	cfg.UseLinks = true
	cfg.Calibrate = false
	cfg.ResidualStride = -1
	cfg.ReconfigureOnFault = true
	cfg.Filter.AdaptiveR = core.AdaptiveConfig{Enabled: true}
	cfg.FaultProfile = linkedProfile
	return cfg
}

// samples is the number of fusion epochs RunInto executes for cfg.
func samples(cfg system.Config) int {
	rate := cfg.SampleRate
	if rate <= 0 {
		rate = 100
	}
	dur := cfg.Profile.Duration()
	if cfg.Duration > 0 && cfg.Duration < dur {
		dur = cfg.Duration
	}
	return int(dur * rate)
}

// expectedBitErrors is the binomial mean and σ of a channel's BER flips
// given its counters: every byte that reached the line (offered, minus
// drops and bytes swallowed by line breaks, plus duplicates) is ten 8N1
// bits. Breaks cut short by the end of a run make the count an upper
// bound by at most one break length.
func expectedBitErrors(s fault.Stats, p fault.Profile) (mean, sigma float64) {
	breakLen := p.LineBreakLen
	if breakLen <= 0 {
		breakLen = 8
	}
	bits := 10 * float64(s.Bytes-s.Dropped+s.Duplicated-s.LineBreaks*breakLen)
	mean = bits * p.BER
	return mean, math.Sqrt(bits * p.BER * (1 - p.BER))
}
