package sabre

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// run assembles, loads and runs a program to completion on the default
// engine, returning the CPU for inspection. The same program also runs
// on the fused engine, which must end in the identical state.
func run(t *testing.T, src string) *CPU {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var cpus [2]*CPU
	for i, eng := range []Engine{EngineCompiled, EngineFast} {
		c := New()
		c.Engine = eng
		if err := c.LoadProgram(p.Words); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatalf("run (%v): %v", eng, err)
		}
		cpus[i] = c
	}
	a, b := cpus[0], cpus[1]
	if a.R != b.R || a.PC != b.PC || a.Cycles != b.Cycles || a.Instret != b.Instret ||
		a.Halted != b.Halted || !bytes.Equal(a.Data, b.Data) {
		t.Fatalf("compiled and fused engines disagree: regs %v / %v, cycles %d / %d",
			a.R, b.R, a.Cycles, b.Cycles)
	}
	return a
}

func TestALUBasics(t *testing.T) {
	c := run(t, `
		li   r1, 7
		li   r2, 5
		add  r3, r1, r2
		sub  r4, r1, r2
		and  r5, r1, r2
		or   r6, r1, r2
		xor  r7, r1, r2
		halt
	`)
	checks := []struct {
		reg  int
		want uint32
	}{{3, 12}, {4, 2}, {5, 5}, {6, 7}, {7, 2}}
	for _, c2 := range checks {
		if c.R[c2.reg] != c2.want {
			t.Errorf("r%d = %d, want %d", c2.reg, c.R[c2.reg], c2.want)
		}
	}
}

func TestShifts(t *testing.T) {
	c := run(t, `
		li   r1, -16       ; 0xFFFFFFF0
		li   r2, 2
		sll  r3, r1, r2    ; 0xFFFFFFC0
		srl  r4, r1, r2    ; 0x3FFFFFFC
		sra  r5, r1, r2    ; 0xFFFFFFFC
		slli r6, r1, 4
		srai r7, r1, 4
		halt
	`)
	if c.R[3] != 0xFFFFFFC0 || c.R[4] != 0x3FFFFFFC || c.R[5] != 0xFFFFFFFC {
		t.Fatalf("shift results %x %x %x", c.R[3], c.R[4], c.R[5])
	}
	if c.R[6] != 0xFFFFFF00 || c.R[7] != 0xFFFFFFFF {
		t.Fatalf("imm shifts %x %x", c.R[6], c.R[7])
	}
}

func TestMulAndMulhu(t *testing.T) {
	c := run(t, `
		li    r1, 0x10000
		li    r2, 0x10000
		mul   r3, r1, r2    ; low 32 = 0
		mulhu r4, r1, r2    ; high 32 = 1
		li    r5, 1000
		li    r6, 1000
		mul   r7, r5, r6
		halt
	`)
	if c.R[3] != 0 || c.R[4] != 1 || c.R[7] != 1000000 {
		t.Fatalf("mul results %x %x %d", c.R[3], c.R[4], c.R[7])
	}
}

func TestSetLessThan(t *testing.T) {
	c := run(t, `
		li    r1, -1
		li    r2, 1
		slt   r3, r1, r2    ; signed: -1 < 1 -> 1
		sltu  r4, r1, r2    ; unsigned: 0xFFFFFFFF < 1 -> 0
		slti  r5, r1, 0     ; -1 < 0 -> 1
		sltiu r6, r2, 2     ; 1 < 2 -> 1
		halt
	`)
	if c.R[3] != 1 || c.R[4] != 0 || c.R[5] != 1 || c.R[6] != 1 {
		t.Fatalf("slt results %d %d %d %d", c.R[3], c.R[4], c.R[5], c.R[6])
	}
}

func TestR0HardwiredZero(t *testing.T) {
	c := run(t, `
		li  r1, 5
		add r0, r1, r1
		mv  r2, r0
		halt
	`)
	if c.R[0] != 0 || c.R[2] != 0 {
		t.Fatalf("r0 = %d, r2 = %d", c.R[0], c.R[2])
	}
}

func TestLoadStoreWord(t *testing.T) {
	c := run(t, `
		li  r1, 0x12345678
		li  r2, 100
		sw  r1, 0(r2)
		lw  r3, 0(r2)
		lw  r4, -4(r2)   ; untouched word reads 0... offset addressing
		sw  r1, 8(r2)
		lw  r5, 8(r2)
		halt
	`)
	if c.R[3] != 0x12345678 || c.R[5] != 0x12345678 {
		t.Fatalf("lw results %x %x", c.R[3], c.R[5])
	}
	if c.R[4] != 0 {
		t.Fatalf("untouched word = %x", c.R[4])
	}
	// Little-endian layout in data memory.
	if c.Data[100] != 0x78 || c.Data[103] != 0x12 {
		t.Fatal("not little-endian")
	}
}

func TestLoadStoreByte(t *testing.T) {
	c := run(t, `
		li  r1, 0x1FF       ; low byte 0xFF
		li  r2, 200
		sb  r1, 0(r2)
		lbu r3, 0(r2)       ; 0xFF
		lb  r4, 0(r2)       ; sign-extended -1
		halt
	`)
	if c.R[3] != 0xFF {
		t.Fatalf("lbu = %x", c.R[3])
	}
	if c.R[4] != 0xFFFFFFFF {
		t.Fatalf("lb = %x", c.R[4])
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// Sum 1..10 with a loop.
	c := run(t, `
		li  r1, 0     ; sum
		li  r2, 1     ; i
		li  r3, 10
	loop:
		add r1, r1, r2
		addi r2, r2, 1
		ble r2, r3, loop
		halt
	`)
	if c.R[1] != 55 {
		t.Fatalf("sum = %d", c.R[1])
	}
}

func TestBranchVariants(t *testing.T) {
	c := run(t, `
		li  r1, -5
		li  r2, 5
		li  r10, 0
		blt r1, r2, s1
		halt
	s1:	ori r10, r10, 1
		bge r2, r1, s2
		halt
	s2:	ori r10, r10, 2
		bltu r2, r1, s3   ; unsigned: 5 < 0xFFFFFFFB -> taken
		halt
	s3:	ori r10, r10, 4
		bne r1, r2, s4
		halt
	s4:	ori r10, r10, 8
		beq r1, r1, s5
		halt
	s5:	ori r10, r10, 16
		bgeu r1, r2, done ; unsigned: 0xFFFFFFFB >= 5 -> taken
		halt
	done:
		ori r10, r10, 32
		halt
	`)
	if c.R[10] != 63 {
		t.Fatalf("branch path flags = %b", c.R[10])
	}
}

func TestCallRet(t *testing.T) {
	c := run(t, `
		li   r1, 20
		call double
		call double
		halt
	double:
		add r1, r1, r1
		ret
	`)
	if c.R[1] != 80 {
		t.Fatalf("r1 = %d", c.R[1])
	}
}

func TestJalrComputedJump(t *testing.T) {
	c := run(t, `
		la   r2, target
		jalr r3, r2, 0
		halt
	target:
		li r4, 99
		halt
	`)
	if c.R[4] != 99 {
		t.Fatalf("computed jump failed, r4 = %d", c.R[4])
	}
	// Link register holds the byte address of the instruction after
	// the jalr (word 3 of the program: la is 2 words + jalr).
	if c.R[3] != 3*4 {
		t.Fatalf("link = %d", c.R[3])
	}
}

func TestLiLargeValues(t *testing.T) {
	c := run(t, `
		li r1, 0xDEADBEEF
		li r2, 0x7FFFFFFF
		li r3, -1
		li r4, 0x10000
		halt
	`)
	if c.R[1] != 0xDEADBEEF || c.R[2] != 0x7FFFFFFF || c.R[3] != 0xFFFFFFFF || c.R[4] != 0x10000 {
		t.Fatalf("li results %x %x %x %x", c.R[1], c.R[2], c.R[3], c.R[4])
	}
}

func TestEquConstants(t *testing.T) {
	c := run(t, `
		.equ MAGIC, 0x1234
		.equ NEG, -42
		li r1, MAGIC
		li r2, NEG
		halt
	`)
	if c.R[1] != 0x1234 || int32(c.R[2]) != -42 {
		t.Fatalf("equ results %x %d", c.R[1], int32(c.R[2]))
	}
}

func TestWordDirectiveAndDisassemble(t *testing.T) {
	p, err := Assemble(`
		j start
	table:
		.word 0x11, 0x22, 0x33
	start:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Words[1] != 0x11 || p.Words[3] != 0x33 {
		t.Fatalf("table = %x", p.Words[1:4])
	}
	if p.Symbols["table"] != 1 || p.Symbols["start"] != 4 {
		t.Fatalf("symbols = %v", p.Symbols)
	}
	// Disassembly smoke test.
	if got := Disassemble(encR(OpADD, 1, 2, 3)); got != "add r1, r2, r3" {
		t.Fatalf("disasm = %q", got)
	}
	if got := Disassemble(encI(OpADDI, 1, 0, -5)); got != "addi r1, r0, -5" {
		t.Fatalf("disasm = %q", got)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"add r1, r2",           // missing operand
		"add r99, r1, r2",      // bad register
		"li r1, notdefined",    // unknown symbol
		"beq r1, r2, nolabel",  // unknown label
		"lw r1, 4",             // bad memory operand
		"lui r1, 0x10000",      // immediate too wide
		"dup: halt\ndup: halt", // duplicate label
		".equ X",               // malformed directive
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestCycleModel(t *testing.T) {
	c := run(t, `
		li  r1, 1    ; 1 cycle (addi)
		add r2, r1, r1 ; 1
		mul r3, r1, r1 ; 4
		lw  r4, 0(r0)  ; 2
		sw  r4, 4(r0)  ; 1
		halt           ; 1
	`)
	if c.Cycles != 10 {
		t.Fatalf("cycles = %d, want 10", c.Cycles)
	}
	if c.Instret != 6 {
		t.Fatalf("instret = %d", c.Instret)
	}
}

func TestTakenBranchCostsExtra(t *testing.T) {
	taken := run(t, `
		li  r1, 1
		beq r1, r1, skip
	skip:
		halt
	`)
	notTaken := run(t, `
		li  r1, 1
		beq r1, r0, skip
	skip:
		halt
	`)
	if taken.Cycles != notTaken.Cycles+1 {
		t.Fatalf("taken %d vs not taken %d", taken.Cycles, notTaken.Cycles)
	}
}

func TestFaults(t *testing.T) {
	for _, eng := range []Engine{EngineCompiled, EngineFast} {
		// Unaligned word access.
		p := MustAssemble(`
			li r1, 2
			lw r2, 0(r1)
			halt
		`)
		c := New()
		c.Engine = eng
		c.LoadProgram(p.Words)
		if _, err := c.Run(100); !errors.Is(err, ErrUnalignedWord) {
			t.Fatalf("%v: err = %v", eng, err)
		}
		// Unmapped peripheral.
		p = MustAssemble(`
			li r1, 0x20000
			lw r2, 0(r1)
			halt
		`)
		c = New()
		c.Engine = eng
		c.LoadProgram(p.Words)
		if _, err := c.Run(100); !errors.Is(err, ErrBusFault) {
			t.Fatalf("%v: err = %v", eng, err)
		}
		// Cycle limit on an infinite loop.
		p = MustAssemble(`
		spin:	j spin
		`)
		c = New()
		c.Engine = eng
		c.LoadProgram(p.Words)
		if _, err := c.Run(1000); !errors.Is(err, ErrCycleLimit) {
			t.Fatalf("%v: err = %v", eng, err)
		}
		// Running off the end of program memory.
		c = New()
		c.Engine = eng
		c.LoadProgram([]uint32{encR(OpADD, 1, 2, 3)})
		// Walks through zeroed program memory (HALT encodes as op 0 ...
		// opcode 0 is HALT, so it halts immediately after the add).
		if _, err := c.Run(10); err != nil {
			t.Fatalf("%v: err = %v", eng, err)
		}
		if !c.Halted {
			t.Fatalf("%v: zero word did not halt", eng)
		}
	}
}

func TestStepAfterHalt(t *testing.T) {
	c := New()
	c.LoadProgram(MustAssemble("halt").Words)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v", err)
	}
}

func TestProgramTooBig(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < ProgWords+1; i++ {
		sb.WriteString("nop\n")
	}
	if _, err := Assemble(sb.String()); err == nil {
		t.Fatal("oversized program assembled")
	}
}

func TestPeripheralLEDsSwitches(t *testing.T) {
	p := MustAssemble(`
		.equ LEDS, 0x10000
		.equ SW,   0x10100
		li r1, LEDS
		li r2, SW
		lw r3, 0(r2)      ; read switches
		sw r3, 0(r1)      ; mirror to LEDs
		halt
	`)
	c := New()
	leds := &LEDs{}
	sw := &Switches{Value: 0xA5}
	c.Map(LEDSBase, leds)
	c.Map(SwitchBase, sw)
	c.LoadProgram(p.Words)
	if _, err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if leds.Value != 0xA5 {
		t.Fatalf("LEDs = %x", leds.Value)
	}
}

func TestPeripheralUARTEcho(t *testing.T) {
	p := MustAssemble(`
		.equ UART, 0x10400
		li r1, UART
	poll:
		lw r2, 4(r1)       ; status
		andi r2, r2, 1     ; RX nonempty?
		beqz r2, done
		lw r3, 0(r1)       ; pop byte
		sw r3, 0(r1)       ; echo
		j poll
	done:
		halt
	`)
	c := New()
	u := &UART{}
	u.Feed([]byte("hello"))
	c.Map(Serial1Base, u)
	c.LoadProgram(p.Words)
	if _, err := c.Run(10000); err != nil {
		t.Fatal(err)
	}
	if got := string(u.Drain()); got != "hello" {
		t.Fatalf("echo = %q", got)
	}
}

func TestPeripheralControlBlock(t *testing.T) {
	p := MustAssemble(`
		.equ CTL, 0x10600
		li r1, CTL
		li r2, 0x8000      ; roll = 0.5 rad in S16.16
		sw r2, 0(r1)
		li r3, 1
		sw r3, 36(r1)      ; valid
		sw r3, 36(r1)      ; valid again -> seq = 2
		halt
	`)
	c := New()
	ctl := &Control{}
	c.Map(AnglesBase, ctl)
	c.LoadProgram(p.Words)
	if _, err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !ctl.Valid() || ctl.Seq() != 2 {
		t.Fatalf("valid=%v seq=%d", ctl.Valid(), ctl.Seq())
	}
	if r := ctl.Angles().Roll; r != 0.5 {
		t.Fatalf("roll = %v", r)
	}
}

func TestPeripheralGUI(t *testing.T) {
	p := MustAssemble(`
		.equ GUI, 0x10300
		li r1, GUI
		li r2, 10
		sw r2, 0(r1)    ; x0
		li r2, 20
		sw r2, 4(r1)    ; y0
		li r2, 100
		sw r2, 8(r1)    ; x1
		li r2, 120
		sw r2, 12(r1)   ; y1
		li r2, 0xFF00
		sw r2, 16(r1)   ; color
		li r2, 1
		sw r2, 20(r1)   ; draw line
		halt
	`)
	c := New()
	gui := &GUI{}
	c.Map(GUIBase, gui)
	c.LoadProgram(p.Words)
	if _, err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(gui.Commands) != 1 {
		t.Fatalf("%d GUI commands", len(gui.Commands))
	}
	cmd := gui.Commands[0]
	if cmd.Op != 1 || cmd.X0 != 10 || cmd.Y1 != 120 || cmd.Color != 0xFF00 {
		t.Fatalf("command = %+v", cmd)
	}
}

func TestPeripheralCounterAndDebug(t *testing.T) {
	p := MustAssemble(`
		.equ CYC, 0x10700
		.equ DBG, 0x10800
		li r1, CYC
		li r2, DBG
		lw r3, 0(r1)     ; cycles before
		nop
		nop
		lw r4, 0(r1)     ; cycles after
		sub r5, r4, r3
		sw r5, 4(r2)     ; report delta
		li r6, 'A'
		sw r6, 0(r2)     ; console byte
		halt
	`)
	c := New()
	dbg := &Debug{}
	c.Map(CounterBase, &Counter{CPU: c})
	c.Map(DebugBase, dbg)
	c.LoadProgram(p.Words)
	if _, err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Words) != 1 || dbg.Words[0] < 3 || dbg.Words[0] > 6 {
		t.Fatalf("cycle delta = %v", dbg.Words)
	}
	if string(dbg.Out) != "A" {
		t.Fatalf("console = %q", dbg.Out)
	}
}

func TestTouchScreenRead(t *testing.T) {
	p := MustAssemble(`
		.equ TS, 0x10200
		li r1, TS
		lw r2, 0(r1)
		lw r3, 4(r1)
		lw r4, 8(r1)
		halt
	`)
	c := New()
	c.Map(TScreenBase, &TouchScreen{X: 120, Y: 80, Pressed: true})
	c.LoadProgram(p.Words)
	if _, err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.R[2] != 120 || c.R[3] != 80 || c.R[4] != 1 {
		t.Fatalf("touch = %d %d %d", c.R[2], c.R[3], c.R[4])
	}
}

func TestMapValidation(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("bad base accepted")
		}
	}()
	c.Map(0x100, &LEDs{}) // inside data RAM
}

// TestRunAllocFree pins the fused interpreter's zero-allocation
// contract: executing a healthy program — ALU ops, RAM loads/stores and
// peripheral bus accesses through the dense dispatch table — must not
// touch the heap, so emulated cycle costs are not distorted by GC work.
// Its predecode array survives LoadProgram, so even a reload per run
// allocates nothing; the compiled engine translates once per load, and
// is held to the same contract across Reset in
// TestCompiledRunAllocFree.
func TestRunAllocFree(t *testing.T) {
	p := MustAssemble(`
		li   r1, 0
		li   r2, 500
		li   r3, 0x00010000   ; LED bank
		li   r4, 0x00010700   ; cycle counter
	loop:
		addi r1, r1, 1
		sw   r1, 0(r3)        ; peripheral write
		lw   r5, 0(r4)        ; peripheral read
		sw   r1, 100(r0)      ; data RAM store
		lw   r6, 100(r0)      ; data RAM load
		blt  r1, r2, loop
		halt
	`)
	c := New()
	c.Engine = EngineFast
	c.Map(LEDSBase, &LEDs{})
	c.Map(CounterBase, &Counter{CPU: c})
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.LoadProgram(p.Words); err != nil {
			panic(err)
		}
		if _, err := c.Run(1 << 30); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Run: %v allocs/run, want 0", allocs)
	}
	if c.R[1] != 500 {
		t.Fatalf("loop counter = %d, want 500", c.R[1])
	}
}

// TestCompiledRunAllocFree is TestRunAllocFree for the default
// (compiled) engine: once the program is translated, re-running it from
// Reset — the steady state of a core re-triggered per sensor epoch —
// must not touch the heap.
func TestCompiledRunAllocFree(t *testing.T) {
	p := MustAssemble(`
		li   r1, 0
		li   r2, 500
		li   r3, 0x00010000   ; LED bank
		li   r4, 0x00010700   ; cycle counter
	loop:
		addi r1, r1, 1
		sw   r1, 0(r3)        ; peripheral write
		lw   r5, 0(r4)        ; peripheral read
		sw   r1, 100(r0)      ; data RAM store
		lw   r6, 100(r0)      ; data RAM load
		blt  r1, r2, loop
		halt
	`)
	c := New()
	c.Map(LEDSBase, &LEDs{})
	c.Map(CounterBase, &Counter{CPU: c})
	if err := c.LoadProgram(p.Words); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		c.Reset()
		if _, err := c.Run(1 << 30); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Run: %v allocs/run, want 0", allocs)
	}
	if c.R[1] != 500 {
		t.Fatalf("loop counter = %d, want 500", c.R[1])
	}
}

// BenchmarkCPUPeripheralLoop exercises the fused engine's bus dispatch
// path: every
// iteration performs a peripheral write and read alongside the ALU
// work, measuring the dense-table decode against the instruction
// baseline of BenchmarkCPULoop.
func BenchmarkCPUPeripheralLoop(b *testing.B) {
	p := MustAssemble(`
		li   r1, 0
		li   r2, 100000
		li   r3, 0x00010000
		li   r4, 0x00010700
	loop:
		addi r1, r1, 1
		sw   r1, 0(r3)
		lw   r5, 0(r4)
		blt  r1, r2, loop
		halt
	`)
	c := New()
	c.Engine = EngineFast
	c.Map(LEDSBase, &LEDs{})
	c.Map(CounterBase, &Counter{CPU: c})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.LoadProgram(p.Words)
		if _, err := c.Run(1 << 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPULoop(b *testing.B) {
	p := MustAssemble(`
		li r1, 0
		li r2, 100000
	loop:
		addi r1, r1, 1
		blt r1, r2, loop
		halt
	`)
	c := New()
	c.Engine = EngineFast
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.LoadProgram(p.Words)
		if _, err := c.Run(1 << 30); err != nil {
			b.Fatal(err)
		}
	}
}
