package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"boresight/internal/fleet"
	"boresight/internal/system"
)

// The serving workloads drive an in-process fleet server (workers =
// GOMAXPROCS) over TCP loopback with two client connections.
//
// serve-short: both connections run a closed loop of 64-scenario
// batches of 0.2 s uncalibrated static specs over 16 tenants.
//
// serve-drive: a bulk tenant submits 64-scenario batches of dynamic
// drives in process (Server.NewBatch, the path the wire session uses
// after decoding), closed loop, which keeps the queue full without
// shedding; on each connection a probe tenant sends one-scenario
// static batches open loop, one every probePeriod. Probe latency is
// timed from each batch's due time. The server drains tenants
// deficit-round-robin with a quantum of one scenario, so a probe waits
// for the next worker to finish its bulk job; at the default quantum of
// 32 it waits out 32 bulk jobs (~0.5 s) and an open loop at any useful
// rate builds an unbounded backlog. Even at quantum 1 a probe takes
// ~55 ms, most of it Go scheduler latency while both workers are busy,
// which sets probePeriod: a connection serves its batches in order, so
// a shorter period queues probes behind probes.

const (
	probePeriod  = 75 * time.Millisecond
	driveQuantum = 1
	// keepEvery is how often a serve-short batch's result payloads are
	// kept for the replay check against direct system.Run (~150 batches
	// of a 25 s run, ~10k direct runs).
	keepEvery = 64
	// ledgerBase offsets the spec indices of the fixed ledger batch away
	// from those the timed phases use.
	ledgerBase = 1 << 40
)

type serveInstance struct {
	cfg   config
	g     *gates
	drive bool

	srv       *fleet.Server
	ln        net.Listener
	serveDone chan error
	conns     [2]*client
	fr        *fpgaRig

	nextShort atomic.Int64 // next serve-short batch index
	nextBulk  int64        // next bulk batch index
	probeBase int64        // first probe batch index of the next phase

	mu        sync.Mutex
	kept      []keptBatch // batches kept for the replay check
	telemetry int64       // telemetry frames seen by the clients
	nonOK     int64       // non-OK result slots
	genLateMs []float64   // probe generator lateness
}

type keptBatch struct {
	specs    []fleet.ScenarioSpec
	payloads []byte
}

func startServeShort(cfg config, g *gates) (instance, error) { return startServe(cfg, g, false) }
func startServeDrive(cfg config, g *gates) (instance, error) { return startServe(cfg, g, true) }

// startServe starts the server and its listener, connects both
// clients, and builds the FPGA rig every run also measures.
func startServe(cfg config, g *gates, drive bool) (instance, error) {
	s := &serveInstance{cfg: cfg, g: g, drive: drive, serveDone: make(chan error, 1)}
	sc := fleet.ServerConfig{Workers: numWorkers()}
	if drive {
		sc.Quantum = driveQuantum
	}
	s.srv = fleet.NewServerConfig(sc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.ln = ln
	go func() { s.serveDone <- s.srv.ServeBinary(ln) }()
	for i := range s.conns {
		if s.conns[i], err = dial(ln.Addr().String()); err != nil {
			s.close()
			return nil, err
		}
	}
	if s.fr, err = newFPGARig(cfg, g); err != nil {
		s.close()
		return nil, err
	}
	// Warm the profile cache and the workers' runners.
	specs := []fleet.ScenarioSpec{shortSpec(cfg.seed, ledgerBase-1)}
	if drive {
		specs = []fleet.ScenarioSpec{bulkSpec(cfg.seed, ledgerBase-1), probeSpec(cfg.seed, ledgerBase-1)}
	}
	if _, err := s.conns[0].roundTrip(specs, false, nil, -1); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveInstance) rig() *fpgaRig { return s.fr }

// close tears the session down in dependency order: clients, listener,
// the accept loop, then the worker pool.
func (s *serveInstance) close() {
	for _, c := range s.conns {
		if c != nil {
			c.conn.Close()
		}
	}
	s.ln.Close()
	<-s.serveDone
	s.srv.Close()
}

// checkReply counts every scenario of a reply as one operation; a shed
// or non-OK slot, or a count mismatch, fails it.
func (s *serveInstance) checkReply(rep batchReply, n int) {
	s.g.ok(int64(rep.ok))
	bad := n - rep.ok
	for i := 0; i < bad; i++ {
		s.g.check(false, "batch of %d: %d ok, %d non-OK, admitted %d, shed %d", n, rep.ok, rep.nonOK, rep.admitted, rep.shed)
	}
	if rep.shed != 0 || int(rep.admitted) != n {
		s.g.check(false, "batch of %d: admitted %d, shed %d", n, rep.admitted, rep.shed)
	}
	s.mu.Lock()
	s.telemetry += int64(rep.telemetry)
	s.nonOK += int64(rep.nonOK)
	s.mu.Unlock()
}

func (s *serveInstance) keep(specs []fleet.ScenarioSpec, rep batchReply) {
	s.mu.Lock()
	s.kept = append(s.kept, keptBatch{specs: append([]fleet.ScenarioSpec(nil), specs...), payloads: rep.payloads})
	s.mu.Unlock()
}

func (s *serveInstance) timed(d time.Duration, tr *tracer) (phase, error) {
	ph := phase{workers: numWorkers()}
	if tr != nil {
		ph.spanFrom = tr.mark()
	}
	var enc0, dec0 int64
	for _, c := range s.conns {
		enc0 += c.encoded.Load()
		dec0 += c.decoded.Load()
	}
	var err error
	if s.drive {
		err = s.timedDrive(d, tr, &ph)
	} else {
		err = s.timedShort(d, tr, &ph)
	}
	for _, c := range s.conns {
		ph.encoded += c.encoded.Load()
		ph.decoded += c.decoded.Load()
	}
	ph.encoded -= enc0
	ph.decoded -= dec0
	return ph, err
}

// timedShort is the serve-short closed loop on both connections.
func (s *serveInstance) timedShort(d time.Duration, tr *tracer, ph *phase) error {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	errs := make([]error, len(s.conns))
	lats := make([][]float64, len(s.conns))
	ops := make([]int64, len(s.conns))
	for ci, c := range s.conns {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			specs := make([]fleet.ScenarioSpec, shortBatch)
			for time.Now().Before(deadline) {
				b := s.nextShort.Add(1) - 1
				for j := range specs {
					specs[j] = shortSpec(s.cfg.seed, int(b)*shortBatch+j)
				}
				keep := b%keepEvery == 0
				rep, err := c.roundTrip(specs, keep, tr, b)
				if err != nil {
					errs[ci] = err
					return
				}
				s.checkReply(rep, len(specs))
				if keep {
					s.keep(specs, rep)
				}
				ops[ci] += int64(rep.ok)
				lats[ci] = append(lats[ci], rep.ended.Sub(rep.sent).Seconds()*1e3)
			}
		}(ci, c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for ci := range s.conns {
		ph.ops += ops[ci]
	}
	ph.latRuns = lats
	return errors.Join(errs...)
}

// timedDrive is serve-drive: the bulk tenant's closed loop submits
// batches in process, and each connection runs an open-loop probe, the
// two schedules offset by half a period.
func (s *serveInstance) timedDrive(d time.Duration, tr *tracer, ph *phase) error {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var bulkErr error
	var bulkEnd time.Time
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { bulkEnd = time.Now() }()
		for time.Now().Before(deadline) {
			b := s.nextBulk
			s.nextBulk++
			n, err := s.bulkBatch(b)
			if err != nil {
				bulkErr = err
				return
			}
			ph.ops += int64(n)
		}
	}()

	errs := make([]error, 2*len(s.conns))
	lats := make([][]float64, len(s.conns))
	probeOps := make([]int64, len(s.conns))
	scheduled := int(d/probePeriod) + 1
	for ci, c := range s.conns {
		// The generator owns the connection's write side, the reader its
		// read side; replies come back in order, so the reader matches
		// them to due times through the channel, which holds one entry
		// per scheduled batch and so never blocks the generator.
		due := make(chan time.Time, scheduled)
		offset := time.Duration(ci) * probePeriod / time.Duration(len(s.conns))
		wg.Add(2)
		go func(ci int, c *client) {
			defer wg.Done()
			defer close(due)
			specs := make([]fleet.ScenarioSpec, probeBatch)
			for k := 0; k < scheduled; k++ {
				at := start.Add(offset + time.Duration(k)*probePeriod)
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				id := int64(k*len(s.conns) + ci)
				for j := range specs {
					specs[j] = probeSpec(s.cfg.seed, int(s.probeBase+id)*probeBatch+j)
				}
				sent, err := c.sendBatch(specs, tr, -1, id)
				if err != nil {
					errs[2*ci] = err
					return
				}
				s.mu.Lock()
				s.genLateMs = append(s.genLateMs, sent.Sub(at).Seconds()*1e3)
				s.mu.Unlock()
				due <- at
			}
		}(ci, c)
		go func(ci int, c *client) {
			defer wg.Done()
			k := 0
			for at := range due {
				rep, err := c.readReply(false, tr, -1, int64(k*len(s.conns)+ci))
				if err != nil {
					errs[2*ci+1] = err
					for range due {
					}
					return
				}
				s.checkReply(rep, probeBatch)
				lats[ci] = append(lats[ci], rep.ended.Sub(at).Seconds()*1e3)
				probeOps[ci] += int64(rep.ok)
				k++
			}
		}(ci, c)
	}
	wg.Wait()
	s.probeBase += int64(scheduled * len(s.conns))
	ph.elapsed = bulkEnd.Sub(start)
	for ci := range s.conns {
		ph.probeOps += probeOps[ci]
	}
	ph.latRuns = lats
	return errors.Join(append(errs, bulkErr)...)
}

// bulkBatch submits bulk batch b in process, waits for it, and checks
// every slot; it returns the scenarios that completed.
func (s *serveInstance) bulkBatch(b int64) (int, error) {
	batch := s.srv.NewBatch()
	defer batch.Release()
	n := s.cfg.scaled(bulkBatch, 4)
	for j := 0; j < n; j++ {
		batch.Add(bulkSpec(s.cfg.seed, int(b)*n+j))
	}
	admitted, shed := batch.Submit(false)
	batch.Wait()
	ok := 0
	for i := 0; i < batch.Len(); i++ {
		if s.g.check(batch.Err(i) == nil, "bulk batch %d scenario %d: %v", b, i, batch.Err(i)) {
			ok++
		}
	}
	if shed != 0 || admitted != n {
		s.g.check(false, "bulk batch %d: admitted %d, shed %d", b, admitted, shed)
	}
	return ok, nil
}

// ledger serves the fixed ledger batch and returns its exact counts.
func (s *serveInstance) ledger() (map[string]int64, error) {
	specs := s.ledgerSpecs()
	rep, err := s.conns[0].roundTrip(specs, true, nil, -1)
	if err != nil {
		return nil, err
	}
	s.checkReply(rep, len(specs))
	h := fnv.New64a()
	h.Write(rep.payloads)
	return map[string]int64{
		"serve.ledger.ok":           int64(rep.ok),
		"serve.ledger.admitted":     int64(rep.admitted),
		"serve.ledger.shed":         int64(rep.shed),
		"serve.ledger.steps":        rep.steps,
		"serve.ledger.payload_hash": int64(h.Sum64() >> 1),
	}, nil
}

func (s *serveInstance) ledgerSpecs() []fleet.ScenarioSpec {
	var specs []fleet.ScenarioSpec
	if s.drive {
		for j := 0; j < 2; j++ {
			specs = append(specs, bulkSpec(s.cfg.seed, ledgerBase+j))
		}
		for j := 0; j < probeBatch; j++ {
			specs = append(specs, probeSpec(s.cfg.seed, ledgerBase+j))
		}
		return specs
	}
	for j := 0; j < shortBatch; j++ {
		specs = append(specs, shortSpec(s.cfg.seed, ledgerBase+j))
	}
	return specs
}

// verify is the replay contract: a sample of served result frames must
// be byte-equal to direct system.Run of the same specs.
func (s *serveInstance) verify() error {
	s.fr.verify()
	s.mu.Lock()
	kept := s.kept
	s.kept = nil
	s.mu.Unlock()
	if s.drive {
		kept = s.driveReplaySample()
	}
	for _, kb := range kept {
		for i, sp := range kb.specs {
			want, err := directPayload(sp, uint32(i))
			if err != nil {
				return err
			}
			got := kb.payloads[i*len(want) : (i+1)*len(want)]
			s.g.check(bytes.Equal(got, want), "served result of spec %+v differs from direct system.Run", sp)
		}
	}
	return nil
}

// driveReplaySample serves a few of the phase's bulk and probe specs
// once more, mixed in one batch, and keeps their payloads: the check
// then costs a bounded number of long direct runs.
func (s *serveInstance) driveReplaySample() []keptBatch {
	var out []keptBatch
	for i := 0; i < s.cfg.scaled(4, 1); i++ {
		var specs []fleet.ScenarioSpec
		specs = append(specs, bulkSpec(s.cfg.seed, i*keepEvery*bulkBatch))
		for j := 0; j < probeBatch; j++ {
			specs = append(specs, probeSpec(s.cfg.seed, i*keepEvery*probeBatch+j))
		}
		rep, err := s.conns[0].roundTrip(specs, true, nil, -1)
		if err != nil {
			s.g.check(false, "replay sample batch: %v", err)
			continue
		}
		s.checkReply(rep, len(specs))
		out = append(out, keptBatch{specs: specs, payloads: rep.payloads})
	}
	return out
}

// directPayload is the Result payload direct system.Run produces for
// the spec at the given batch index.
func directPayload(sp fleet.ScenarioSpec, index uint32) ([]byte, error) {
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	res, err := system.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("direct run: %w", err)
	}
	var p fleet.FrameParser
	p.Feed(fleet.AppendResult(nil, index, fleet.StatusOK, res))
	_, payload, ok := p.Next()
	if !ok {
		return nil, errors.New("direct result frame does not parse")
	}
	return payload, nil
}
