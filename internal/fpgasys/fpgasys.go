// Package fpgasys assembles the complete FPGA design of the paper's
// Figures 3 and 4 on a single simulation clock — the Handel-C top level
//
//	par{ SabreRun; RAMRun(RAM1); RAMRun(RAM2);
//	     VideoInRun; VideoOutRun; seq{ WaitForSabre; ... } }
//
// as one co-simulated system: the Sabre core steps through its control
// program at its instruction timing, its two UARTs receive sensor bytes
// at real line rate, the video input captures frames into the back ZBT
// bank, and the affine pipeline reads the front bank under the control
// registers the processor writes, with the double-buffer swap at frame
// boundaries. The "WaitForSabre" of Figure 4 appears as the frame
// controller refusing to start output until the control block holds a
// valid solution.
package fpgasys

import (
	"errors"
	"fmt"

	"boresight/internal/affine"
	"boresight/internal/fixed"
	"boresight/internal/hcsim"
	"boresight/internal/rc200"
	"boresight/internal/sabre"
	"boresight/internal/video"
)

// ClockHz is the system clock rate used to convert wall time to cycles
// (the RC200 era's typical design clock).
const ClockHz = 25e6

// Config sizes the system.
type Config struct {
	W, H int
	// Source supplies camera frames to VideoIn (frame number → frame).
	Source func(frameNo int) *video.Frame
	// DMUBaud and ACCBaud set the serial line rates (defaults 57600).
	DMUBaud float64
	ACCBaud float64
}

// System is the assembled design.
type System struct {
	Sim      *hcsim.Sim
	CPU      *sabre.CPU
	Ctl      *sabre.Control
	LEDs     *sabre.LEDs
	RAM1     *rc200.SRAM
	RAM2     *rc200.SRAM
	Buffers  *rc200.DoubleBuffer
	VideoIn  *rc200.VideoIn
	Display  *rc200.Display
	Pipeline *affine.Pipeline

	dmuUART *sabre.UART
	accUART *sabre.UART
	dmuLine *lineFeeder
	accLine *lineFeeder
	cpuStep *cpuStepper
	frames  *frameController
}

// New builds and wires the system; the Sabre boots the sensor-parsing
// control program of Figure 7.
func New(cfg Config) (*System, error) {
	if cfg.W <= 0 || cfg.H <= 0 || cfg.Source == nil {
		return nil, fmt.Errorf("fpgasys: incomplete config")
	}
	if cfg.DMUBaud <= 0 {
		cfg.DMUBaud = 57600
	}
	if cfg.ACCBaud <= 0 {
		cfg.ACCBaud = 57600
	}
	sim := hcsim.NewSim()

	cpu, dmu, acc, ctl, leds, err := sabre.ControlCPU()
	if err != nil {
		return nil, err
	}

	ram1 := rc200.NewSRAM(sim)
	ram2 := rc200.NewSRAM(sim)
	db := rc200.NewDoubleBuffer(ram1, ram2)
	vin := rc200.NewVideoIn(sim, cfg.W, cfg.H, cfg.Source)
	disp := rc200.NewDisplay(cfg.W, cfg.H)
	lut := fixed.NewTrig(1024, fixed.TrigFrac)
	pipe := affine.NewPipeline(sim, lut, db.Front(), disp, cfg.W, cfg.H)

	s := &System{
		Sim: sim, CPU: cpu, Ctl: ctl, LEDs: leds,
		RAM1: ram1, RAM2: ram2, Buffers: db,
		VideoIn: vin, Display: disp, Pipeline: pipe,
		dmuUART: dmu, accUART: acc,
	}
	s.dmuLine = newLineFeeder(dmu, cfg.DMUBaud)
	s.accLine = newLineFeeder(acc, cfg.ACCBaud)
	s.cpuStep = &cpuStepper{cpu: cpu}
	s.frames = &frameController{sys: s}
	sim.Add(s.dmuLine)
	sim.Add(s.accLine)
	sim.Add(s.cpuStep)
	sim.Add(s.frames)

	// Capture starts immediately into the back bank.
	vin.Enable(db.Back())
	return s, nil
}

// SendDMU queues bytes on the DMU serial line (they arrive at line
// rate, not instantly).
func (s *System) SendDMU(data []byte) { s.dmuLine.queue(data) }

// SendACC queues bytes on the ACC serial line.
func (s *System) SendACC(data []byte) { s.accLine.queue(data) }

// DepositSolution writes a fusion solution into the processor's data
// memory the way the Kalman task does; the control program moves it to
// the hardware registers.
func (s *System) DepositSolution(rollS16 int32, lutIdx, tx, ty int32) {
	s.CPU.StoreWord(0x44, uint32(rollS16))
	s.CPU.StoreWord(0x48, uint32(lutIdx))
	s.CPU.StoreWord(0x4C, uint32(tx))
	s.CPU.StoreWord(0x50, uint32(ty))
	s.CPU.StoreWord(0x54, 1)
}

// Run advances the whole system n clock cycles.
func (s *System) Run(n int) error {
	for i := 0; i < n; i++ {
		s.Sim.Tick()
		if err := s.cpuStep.err; err != nil {
			return fmt.Errorf("fpgasys: CPU fault at cycle %d: %w", s.Sim.Cycle(), err)
		}
	}
	return nil
}

// OutputFrames returns the number of corrected frames delivered.
func (s *System) OutputFrames() uint64 { return s.Pipeline.FramesDone() }

// CPUInstructions returns the instructions the control program has
// retired.
func (s *System) CPUInstructions() uint64 { return s.CPU.Instret }

// lineFeeder delivers queued bytes to a CPU UART at line rate: one byte
// every 10 bit-times (8N1 framing). A byte queued on an idle line still
// takes a full byte-time to arrive.
type lineFeeder struct {
	uart       *sabre.UART
	byteCycles uint64
	pending    []byte
	elapsed    uint64 // cycles the byte on the wire has been sending
}

func newLineFeeder(uart *sabre.UART, baud float64) *lineFeeder {
	return &lineFeeder{uart: uart, byteCycles: max(uint64(10/baud*ClockHz), 1)}
}

func (l *lineFeeder) queue(data []byte) {
	l.pending = append(l.pending, data...)
}

// Eval advances one clock of line time.
func (l *lineFeeder) Eval() {
	if len(l.pending) == 0 {
		return
	}
	l.elapsed++
	if l.elapsed >= l.byteCycles {
		l.uart.Feed(l.pending[:1])
		l.pending = l.pending[1:]
		l.elapsed = 0
	}
}

// cpuStepper advances the Sabre by whole instructions, charging each
// instruction's cycle cost against the system clock.
type cpuStepper struct {
	cpu   *sabre.CPU
	stall uint64
	err   error
}

// ErrCPUHalted reports that the control program executed HALT.
var ErrCPUHalted = errors.New("fpgasys: control program halted")

// Eval advances the processor by one clock, issuing the next
// instruction once the previous one's cycle cost has elapsed.
func (c *cpuStepper) Eval() {
	if c.err != nil || c.cpu.Halted {
		return
	}
	if c.stall > 0 {
		c.stall--
		return
	}
	before := c.cpu.Cycles
	if err := c.cpu.Step(); err != nil {
		c.err = err
		return
	}
	cost := c.cpu.Cycles - before
	if cost > 0 {
		c.stall = cost - 1
	}
}

// frameController implements Figure 4's main seq loop: wait for the
// Sabre's solution ("WaitForSabre"), then run capture and output in
// parallel with a buffer swap per frame.
type frameController struct {
	sys        *System
	lastSeq    uint32
	lastCapt   uint64
	everValid  bool
	swapsTotal uint64
}

// Eval latches new control-block solutions into the pipeline and runs
// the per-frame swap/start sequencing.
func (f *frameController) Eval() {
	s := f.sys

	// Latch new solutions from the control block into the pipeline.
	if seq := s.Ctl.Seq(); seq != f.lastSeq {
		f.lastSeq = seq
		idx := int(int32(s.Ctl.ThetaIdx()))
		tx, ty := s.Ctl.TXTY()
		s.Pipeline.SetControl(idx, int(tx), int(ty))
		f.everValid = true
	}

	// WaitForSabre: no output until the first valid solution.
	if !f.everValid {
		// Still swap capture buffers so the camera keeps running.
		if capt := s.VideoIn.FramesCaptured(); capt != f.lastCapt {
			f.lastCapt = capt
			s.Buffers.Swap()
			s.VideoIn.Retarget(s.Buffers.Back())
			f.swapsTotal++
		}
		return
	}

	// At each completed capture, once the output pipeline has drained,
	// swap and start the next corrected frame.
	if capt := s.VideoIn.FramesCaptured(); capt != f.lastCapt && !s.Pipeline.Busy() {
		f.lastCapt = capt
		s.Buffers.Swap()
		s.VideoIn.Retarget(s.Buffers.Back())
		s.Pipeline.SetSource(s.Buffers.Front())
		s.Pipeline.Start()
		f.swapsTotal++
	}
}
