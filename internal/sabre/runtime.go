package sabre

import (
	"fmt"
	"strings"
	"sync"
)

// Library returns the complete SoftFloat assembly library source,
// ready to append to a program.
func Library() string { return SoftFloatLib + softFloatCompareLib }

// Batch harness memory map (data space).
const (
	batchCountAddr = 0x0000 // word: number of operations
	batchInAddr    = 0x0100 // input pairs, 8 bytes each
	batchOutAddr   = 0x8000 // output words
	stackTop       = 0xFF00 // initial stack pointer
	// MaxBatch is the largest batch the layout supports.
	MaxBatch = (batchOutAddr - batchInAddr) / 8
)

// batchMain is the driver loop that applies one library routine to an
// array of operand pairs — the emulator-side equivalent of a test
// kernel running on the real core.
const batchMain = `
	li sp, %d
	lw s0, 0(zero)
	li s1, %d
	li s2, %d
	beqz s0, bm_done
bm_loop:
	lw a0, 0(s1)
	lw a1, 4(s1)
	call %s
	sw a0, 0(s2)
	addi s1, s1, 8
	addi s2, s2, 4
	addi s0, s0, -1
	bnez s0, bm_loop
bm_done:
	halt
`

// BatchProgram assembles the batch driver around the library for the
// named routine (e.g. "f32_add", "f32_cmp_lt", "f32_from_i32").
func BatchProgram(routine string) (*Program, error) {
	if !strings.HasPrefix(routine, "f32_") {
		return nil, fmt.Errorf("sabre: unknown routine %q", routine)
	}
	src := fmt.Sprintf(batchMain, stackTop, batchInAddr, batchOutAddr, routine) + Library()
	return Assemble(src)
}

// batchRoutines are the library's public routines, each of which the
// batch harness can drive.
var batchRoutines = []string{
	"f32_add", "f32_sub", "f32_mul", "f32_div", "f32_sqrt", "f32_neg",
	"f32_from_i32", "f32_to_i32", "f32_cmp_eq", "f32_cmp_lt", "f32_cmp_le",
}

// batchPrograms assembles each public routine's batch program once per
// process. The map is read-only after init; LoadProgram copies the
// words, so every CPU can share one assembled program.
var batchPrograms = func() map[string]func() (*Program, error) {
	m := make(map[string]func() (*Program, error), len(batchRoutines))
	for _, r := range batchRoutines {
		m[r] = sync.OnceValues(func() (*Program, error) { return BatchProgram(r) })
	}
	return m
}()

// RunBatch executes the named routine over operand pairs on a fresh
// CPU with the default (compiled) engine, returning the results and
// the mean cycles per operation (including the ~10-cycle driver-loop
// overhead).
func RunBatch(routine string, pairs [][2]uint32) ([]uint32, float64, error) {
	return RunBatchEngine(EngineCompiled, routine, pairs)
}

// RunBatchEngine is RunBatch on an explicitly selected engine.
func RunBatchEngine(engine Engine, routine string, pairs [][2]uint32) ([]uint32, float64, error) {
	if len(pairs) > MaxBatch {
		return nil, 0, fmt.Errorf("sabre: batch of %d exceeds %d", len(pairs), MaxBatch)
	}
	assemble, ok := batchPrograms[routine]
	if !ok {
		assemble = func() (*Program, error) { return BatchProgram(routine) }
	}
	prog, err := assemble()
	if err != nil {
		return nil, 0, err
	}
	c := New()
	c.Engine = engine
	if err := c.LoadProgram(prog.Words); err != nil {
		return nil, 0, err
	}
	c.StoreWord(batchCountAddr, uint32(len(pairs)))
	for i, p := range pairs {
		c.StoreWord(uint32(batchInAddr+8*i), p[0])
		c.StoreWord(uint32(batchInAddr+8*i+4), p[1])
	}
	if _, err := c.Run(uint64(len(pairs))*5000 + 10000); err != nil {
		return nil, 0, fmt.Errorf("sabre: batch %s: %w", routine, err)
	}
	out := make([]uint32, len(pairs))
	for i := range out {
		out[i] = c.LoadWord(uint32(batchOutAddr + 4*i))
	}
	perOp := 0.0
	if len(pairs) > 0 {
		perOp = float64(c.Cycles) / float64(len(pairs))
	}
	return out, perOp, nil
}
