package sabre

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// This file holds the two application programs the paper runs on the
// core: a Kalman tracking filter computed entirely with the SoftFloat
// library (Section 10's main workload), and the control/IO program that
// parses the two sensor serial streams and loads the solution into the
// affine hardware's register block (Figure 7).

// Kalman program memory map.
const (
	kalN    = 0x00 // word: number of measurements
	kalQ    = 0x04 // f32 process noise variance
	kalR    = 0x08 // f32 measurement noise variance
	kalP    = 0x0C // f32 covariance (updated in place)
	kalX    = 0x10 // f32 initial state
	kalK    = 0x14 // f32 scratch: gain
	kalZIn  = 0x100
	kalXOut = 0x8000
)

// kalmanMain is a scalar Kalman filter over f32 measurements:
//
//	K = P / (P + R);  x += K (z − x);  P = (1−K) P + Q
//
// — fifteen SoftFloat calls per update, all on the emulated core.
const kalmanMain = `
	li sp, 0xFF00
	lw s0, 0(zero)          ; N
	li s1, 0x100            ; z pointer
	li s2, 0x8000           ; output pointer
	lw fp, 16(zero)         ; x (fp survives library calls)
kal_loop:
	beqz s0, kal_done
	; K = P / (P + R)
	lw a0, 12(zero)
	lw a1, 8(zero)
	call f32_add
	mv a1, a0
	lw a0, 12(zero)
	call f32_div
	sw a0, 20(zero)
	; x += K * (z - x)
	lw a0, 0(s1)
	mv a1, fp
	call f32_sub
	lw a1, 20(zero)
	call f32_mul
	mv a1, fp
	call f32_add
	mv fp, a0
	; P = (1 - K) * P + Q
	li a0, 0x3F800000       ; 1.0f
	lw a1, 20(zero)
	call f32_sub
	lw a1, 12(zero)
	call f32_mul
	lw a1, 4(zero)
	call f32_add
	sw a0, 12(zero)
	sw fp, 0(s2)
	addi s1, s1, 4
	addi s2, s2, 4
	addi s0, s0, -1
	j kal_loop
kal_done:
	halt
`

// KalmanResult reports a Sabre-hosted Kalman run.
type KalmanResult struct {
	Estimates       []float32 // per-step state estimate
	FinalP          float32   // final covariance
	CyclesPerUpdate float64
	TotalCycles     uint64
	Instructions    uint64
	WallSeconds     float64 // host wall-clock time inside Run
	// Compiled holds the dispatch and intrinsic statistics when the run
	// used the compiled engine (nil otherwise).
	Compiled *CompiledStats
}

// KalmanProgram assembles the SoftFloat Kalman program (kalmanMain plus
// the SoftFloat library) — exported so benchmarks and the parity tests
// can load it onto a reusable CPU.
func KalmanProgram() (*Program, error) {
	return Assemble(kalmanMain + Library())
}

// SetKalmanInputs (re)writes the Kalman program's input memory: the
// filter parameters at the head of RAM and the measurement block at
// kalZIn. Together with Reset it prepares a loaded CPU for a fresh run
// without reassembling or reloading the program.
func SetKalmanInputs(c *CPU, q, r, p0, x0 float32, z []float32) {
	c.StoreWord(kalN, uint32(len(z)))
	c.StoreWord(kalQ, math.Float32bits(q))
	c.StoreWord(kalR, math.Float32bits(r))
	c.StoreWord(kalP, math.Float32bits(p0))
	c.StoreWord(kalX, math.Float32bits(x0))
	for i, v := range z {
		c.StoreWord(uint32(kalZIn+4*i), math.Float32bits(v))
	}
}

// KalmanRunBudget is the cycle budget RunKalman grants a run over n
// measurements.
func KalmanRunBudget(n int) uint64 { return uint64(n)*20000 + 10000 }

// kalmanProgram assembles the Kalman program once per process for the
// runners; LoadProgram copies the words, so every CPU shares it.
var kalmanProgram = sync.OnceValues(KalmanProgram)

// RunKalman executes the scalar Kalman program on the emulated core
// with the default (compiled) engine.
func RunKalman(q, r, p0, x0 float32, z []float32) (*KalmanResult, error) {
	return RunKalmanEngine(EngineCompiled, q, r, p0, x0, z)
}

// RunKalmanEngine is RunKalman on an explicitly selected engine.
func RunKalmanEngine(engine Engine, q, r, p0, x0 float32, z []float32) (*KalmanResult, error) {
	if len(z) > (kalXOut-kalZIn)/4 {
		return nil, fmt.Errorf("sabre: %d measurements exceed the data store", len(z))
	}
	prog, err := kalmanProgram()
	if err != nil {
		return nil, err
	}
	c := New()
	c.Engine = engine
	if err := c.LoadProgram(prog.Words); err != nil {
		return nil, err
	}
	SetKalmanInputs(c, q, r, p0, x0, z)
	var cs *CompiledStats
	if engine == EngineCompiled {
		cs = &CompiledStats{}
		c.CollectCompiledStats(cs)
	}
	t0 := time.Now()
	if _, err := c.Run(KalmanRunBudget(len(z))); err != nil {
		return nil, fmt.Errorf("sabre: kalman program: %w", err)
	}
	wall := time.Since(t0).Seconds()
	res := &KalmanResult{
		Estimates:    make([]float32, len(z)),
		FinalP:       math.Float32frombits(c.LoadWord(kalP)),
		TotalCycles:  c.Cycles,
		Instructions: c.Instret,
		WallSeconds:  wall,
		Compiled:     cs,
	}
	for i := range res.Estimates {
		res.Estimates[i] = math.Float32frombits(c.LoadWord(uint32(kalXOut + 4*i)))
	}
	if len(z) > 0 {
		res.CyclesPerUpdate = float64(c.Cycles) / float64(len(z))
	}
	return res, nil
}

// Control program memory map: parsed sensor values and the solution the
// (host-side) fusion task deposits for the hardware.
const (
	ctlHaltFlag = 0x20 // nonzero stops the program
	ctlACCT1X   = 0x24 // latest ACC x' duty count
	ctlACCT1Y   = 0x28 // latest ACC y' duty count
	ctlACCT2    = 0x2C // latest ACC period count
	ctlDMUAX    = 0x30 // latest DMU accel counts (sign-extended)
	ctlDMUAY    = 0x34
	ctlDMUAZ    = 0x38
	ctlACCCount = 0x3C // ACC packets parsed
	ctlDMUCount = 0x40 // DMU accel frames parsed
	ctlSolRoll  = 0x44 // solution: roll S16.16 (written by fusion task)
	ctlSolIdx   = 0x48 // solution: LUT index
	ctlSolTX    = 0x4C // solution: x translation
	ctlSolTY    = 0x50 // solution: y translation
	ctlSolNew   = 0x54 // nonzero: solution pending
)

// controlMain services the two sensor UARTs and the control block:
// it parses ACC packets (0xC5 header, 6 payload bytes, two's-complement
// checksum) and bridge-encapsulated DMU CAN frames (0xAA 0x55 header),
// stores the freshest values to memory for the fusion task, and loads
// any pending solution into the affine hardware's registers — the
// paper's "smart peripheral" software loop.
const controlMain = `
	.equ UART_DMU, 0x10400
	.equ UART_ACC, 0x10500
	.equ CTLBLK,   0x10600
	.equ LEDS,     0x10000
	li sp, 0xFF00
main_loop:
	lw t0, 0x20(zero)       ; halt flag
	bnez t0, main_halt

	; ---- ACC port: parse any complete 8-byte packets ----
	li s0, UART_ACC
acc_hunt:
	lw t0, 8(s0)            ; RX fill level
	sltiu t1, t0, 8
	bnez t1, dmu_hunt       ; need a full packet
	lw t0, 0(s0)            ; candidate header
	li t1, 0xC5
	bne t0, t1, acc_hunt    ; resync: drop and rescan
	; read 6 payload bytes + checksum, summing as we go; the
	; header is not covered: payload + checksum sum to 0 mod 256
	li s1, 0
	lw t2, 0(s0)            ; t1x hi
	add s1, s1, t2
	slli a2, t2, 8
	lw t2, 0(s0)            ; t1x lo
	add s1, s1, t2
	or a2, a2, t2           ; a2 = t1x
	lw t2, 0(s0)            ; t1y hi
	add s1, s1, t2
	slli a3, t2, 8
	lw t2, 0(s0)            ; t1y lo
	add s1, s1, t2
	or a3, a3, t2           ; a3 = t1y
	lw t2, 0(s0)            ; t2 hi
	add s1, s1, t2
	slli t4, t2, 8
	lw t2, 0(s0)            ; t2 lo
	add s1, s1, t2
	or t4, t4, t2           ; t4 = period
	lw t2, 0(s0)            ; checksum
	add s1, s1, t2
	andi s1, s1, 0xFF
	bnez s1, acc_hunt       ; bad checksum: resync
	sw a2, 0x24(zero)
	sw a3, 0x28(zero)
	sw t4, 0x2C(zero)
	lw t0, 0x3C(zero)
	addi t0, t0, 1
	sw t0, 0x3C(zero)
	j acc_hunt

	; ---- DMU port: parse bridge packets, keep accel frames ----
dmu_hunt:
	li s0, UART_DMU
dmu_scan:
	lw t0, 8(s0)
	sltiu t1, t0, 14        ; header(2)+id(2)+dlc(1)+8 data+ck = 14
	bnez t1, ctl_update
	lw t0, 0(s0)
	li t1, 0xAA
	bne t0, t1, dmu_scan
	lw t0, 0(s0)
	li t1, 0x55
	bne t0, t1, dmu_scan
	li s1, 0                ; checksum accumulator
	lw t2, 0(s0)            ; id hi
	add s1, s1, t2
	slli s2, t2, 8
	lw t2, 0(s0)            ; id lo
	add s1, s1, t2
	or s2, s2, t2           ; s2 = id
	lw t2, 0(s0)            ; dlc
	add s1, s1, t2
	li t1, 8
	bne t2, t1, dmu_scan    ; only full frames
	; 8 data bytes into memory scratch 0x60..0x67
	li t3, 0
dmu_data:
	lw t2, 0(s0)
	add s1, s1, t2
	addi t0, t3, 0x60
	sb t2, 0(t0)
	addi t3, t3, 1
	li t1, 8
	blt t3, t1, dmu_data
	lw t2, 0(s0)            ; checksum byte
	add s1, s1, t2
	andi s1, s1, 0xFF
	bnez s1, dmu_scan
	li t1, 0x101            ; accel frame id
	bne s2, t1, dmu_scan    ; rates frame: ignored by this task
	; decode three big-endian int16 counts, sign-extended
	li t3, 0
dmu_dec:
	slli t0, t3, 1          ; byte offset = 2*i
	addi t0, t0, 0x60
	lbu t1, 0(t0)
	lbu t2, 1(t0)
	slli t1, t1, 8
	or t1, t1, t2
	slli t1, t1, 16         ; sign extend 16 -> 32
	srai t1, t1, 16
	slli t0, t3, 2          ; word offset
	addi t0, t0, 0x30
	sw t1, 0(t0)
	addi t3, t3, 1
	li t0, 3
	blt t3, t0, dmu_dec
	lw t0, 0x40(zero)
	addi t0, t0, 1
	sw t0, 0x40(zero)
	j dmu_scan

	; ---- solution: load into the control block when pending ----
ctl_update:
	lw t0, 0x54(zero)
	beqz t0, show_status
	li s0, CTLBLK
	lw t1, 0x44(zero)       ; roll S16.16
	sw t1, 0(s0)
	lw t1, 0x48(zero)       ; LUT index
	sw t1, 32(s0)
	lw t1, 0x4C(zero)
	sw t1, 24(s0)           ; tx
	lw t1, 0x50(zero)
	sw t1, 28(s0)           ; ty
	li t1, 1
	sw t1, 36(s0)           ; valid (bumps seq)
	sw zero, 0x54(zero)     ; clear pending
show_status:
	li s0, LEDS
	lw t0, 0x3C(zero)
	lw t1, 0x40(zero)
	slli t1, t1, 8
	or t0, t0, t1
	sw t0, 0(s0)
	j main_loop
main_halt:
	halt
`

// ControlProgram assembles the sensor-parsing control program.
func ControlProgram() (*Program, error) {
	return Assemble(controlMain)
}

// ControlCPU builds a CPU with the control program loaded and the
// Figure 7 peripheral set attached, returning the CPU and its devices.
func ControlCPU() (*CPU, *UART, *UART, *Control, *LEDs, error) {
	prog, err := ControlProgram()
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	c := New()
	dmu := &UART{}
	acc := &UART{}
	ctl := &Control{}
	leds := &LEDs{}
	c.Map(Serial1Base, dmu)
	c.Map(Serial2Base, acc)
	c.Map(AnglesBase, ctl)
	c.Map(LEDSBase, leds)
	c.Map(SwitchBase, &Switches{})
	c.Map(TScreenBase, &TouchScreen{})
	c.Map(GUIBase, &GUI{})
	c.Map(CounterBase, &Counter{CPU: c})
	if err := c.LoadProgram(prog.Words); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	return c, dmu, acc, ctl, leds, nil
}
