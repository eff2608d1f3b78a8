package sabre

// This file is the block translator of the compiled engine: the lazy
// bridge from a block entry pc to an executable closure. Translation
// happens at most once per entry pc per loaded program (LoadProgram
// invalidates the table together with the decoded array), so its cost
// is predecode-class and the steady state allocates nothing.
//
// Translation strategy, in order:
//
//  1. Kernel match. The entry block's position-independent signature
//     hash keys into the registry of translated regions (kernels_gen.go
//     holds the generated region kernels for the bundled SoftFloat
//     library and application programs; kernels.go the hand-written
//     loop kernels). A hit is confirmed by verifying the candidate's
//     full region signature against program memory — every record, not
//     just the hash — before the region closure is bound at this
//     leader. Mid-region entries that are not registered leaders (a
//     resumed run can stop anywhere) simply miss and take the generic
//     path; correctness never depends on a kernel binding.
//
//  2. Runtime region. Anything unrecognised becomes the entry of a
//     region the runtime region generator (regiongen.go) forms: every
//     block reachable from it, translated once into records run by one
//     call-free loop with compiled-tier conventions — counters in
//     locals, hoisted budget checks, and recognised SoftFloat call
//     targets lowered to the native intrinsic mirrors — bound at every
//     head it covers, so runtime-assembled programs reach kernel-class
//     dispatch instead of the per-block generic interpreter. The
//     generic closure (runcompiled.go) remains as the defensive rebind
//     path.

// compileBlockAt translates the block entered at pc and installs it in
// the translation table, returning the installed slot.
func (c *CPU) compileBlockAt(pc uint32) *compiledBlock {
	bi := scanBlockWords(c.Prog, pc)
	if k, ok := c.kernelAt(pc, &bi); ok {
		c.blocks[pc] = k
	} else {
		c.blocks[pc] = c.runtimeRegion(pc)
	}
	return &c.blocks[pc]
}

// kernelAt returns the generated or hand-written kernel binding for the
// block bi scanned at pc, if the registry holds one whose full region
// signature matches program memory.
func (c *CPU) kernelAt(pc uint32, bi *blockInfo) (compiledBlock, bool) {
	if c.noKernels {
		return compiledBlock{}, false
	}
	for _, k := range kernelIndex[blockKeyWords(c.Prog, pc, bi)] {
		if k.backOff > pc {
			continue
		}
		base := pc - k.backOff
		if matchSigWords(c.Prog, base, k.sig) {
			return compiledBlock{fn: k.bind(base), worst: k.worst, kind: k.kind}, true
		}
	}
	return compiledBlock{}, false
}
