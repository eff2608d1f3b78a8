package sabre

import "encoding/binary"

// This file is the runtime region generator of the compiled engine: the
// translation tier between the ahead-of-time region kernels
// (kernels_gen.go) and the generic per-block reference interpreter
// (runcompiled.go). Programs assembled at runtime — mission profiles
// composed on the fly, test programs, user code — have no generated
// kernel to bind, so the translator forms a *region* for them instead:
// every block reachable from the entry pc through static control flow
// (branches both ways, jumps, calls into their callees, and the resume
// point after every call), translated once into one flat record array
// and executed by one closure. The conventions are the generated
// kernels':
//
//   - fallthrough chains, loops and call/return pairs stay inside the
//     region, with the architectural counters and the register-file and
//     data-store pointers in locals of one call-free loop; control
//     leaves for the dispatcher only at HALT, faults, budget boundaries,
//     and jumps the region does not cover;
//   - each block is a superblock: the straight-line records from its
//     head to its terminator, with a tail shared by several heads
//     duplicated into each, so a block is always entered at its top and
//     its cycle and instruction costs are two constants charged at the
//     terminator (writes to r0 are dropped at translation time, and a
//     shift-add instruction folds into the record after it);
//   - budget checks are hoisted exactly as in the generated kernels:
//     only backward control-flow targets (every loop crosses one per
//     iteration) and dynamic landings — a JALR into the region, the
//     resume point after a lowered intrinsic — test the budget, each
//     against the worst-case cost of the longest path to the next
//     check, with the forward-only heads in between folded in. The
//     dispatcher's own pre-check covers the entry the same way, and a
//     failing check leaves at the head, an exact instruction boundary;
//   - loads and stores take an in-RAM fast path and fall back to
//     loadSlow/storeSlow/fault with the exact mid-block pc and
//     pre-retirement counters the reference interpreter would show;
//   - a JAL whose target is a routine of a detected canonical SoftFloat
//     blob is lowered to the native intrinsic mirror (intrinsics.go),
//     exactly as generated kernels lower their known call sites; the
//     mirror declines near the budget boundary and the ordinary call
//     leaves the region for the routine's own translation.
//
// One region binds a translation-table entry at every head it covers
// that has none yet, so later dispatches into the same code (a resumed
// run, a jump the region left by) reuse it. Heads where a generated
// kernel matches stay outside every region: the kernel binds there.
// Translation allocates (the region's arrays and one closure per bound
// head per program load); steady-state execution does not.

// maxRegionRecs bounds one region's record count: tails shared by many
// heads are duplicated per head, so an adversarial program could
// otherwise translate quadratically. Heads past the bound are left to
// their own translation.
const maxRegionRecs = 4096

// stCold is region.hot's status for a record that needs a call.
const stCold = -1

// Region record ops past the ISA's own opcodes (all terminators).
const (
	rOpIllegal = uint8(numOpcodes) + iota // word with an opcode outside the ISA
	rOpOpen                               // block ran off the end of program memory
	rOpCall                               // JAL lowered to an intrinsic mirror
	rOpExit                               // leave the region

	// rPre marks a record carrying a pre-op. Every op has a twin case
	// with this bit set, which runs the pre-op and falls through into
	// the op — so a fused pair costs one dispatch and unfused records
	// pay no test for it.
	rPre = 0x40
)

// rrec is one region record: what the hot loop needs of one
// instruction, or of a block terminator. Fields by kind:
//
//	ALU         rd, rs1, rs2, imm (writes to r0 are dropped)
//	memory      rd, rs1, imm (pc and block prefix in the record's rmeta)
//	terminator  imm = the block's cycles | instructions<<16, charged
//	            when it retires
//	  branch    rs1, rs2; to/chk[0] the fallthrough, [1] the target
//	  JAL       rd; to/chk[1] the target, to[0] the link value
//	  call      a JAL lowered to an intrinsic mirror, run cold: rd;
//	            to/chk[1] the target, [0] the resume point
//	  JALR      rd, rs1; to[1] the offset, to[0] the link value
//	  illegal   to[0] the raw opcode
//	  exit      to[0] the pc to leave the region at
//
// A successor is the record index of a region head or of an exit
// record; its check is the worst-case cost from the head to the next
// check plus one, or 0 for a head reached unchecked.
//
// A record whose op carries rPre first runs its pre-op: the shift-add
// instruction (ADDI, SLLI, SRLI, or LUI) that preceded it in the block,
// r[prd] = r[prs] <op pk> pimm.
type rrec struct {
	op, rd, rs1, rs2 uint8
	prd, prs, pk     uint8
	imm, pimm        int32
	to               [2]uint32
	chk              [2]uint32
}

// Pre-op kinds.
const (
	preAdd = iota // ADDI, and LUI as an add to r0
	preShl        // SLLI
	preShr        // SRLI
)

// pre runs the record's pre-op.
func (d *rrec) pre(r *[16]uint32) {
	v := r[d.prs&15]
	switch d.pk {
	case preShl:
		v <<= uint32(d.pimm) & 31
	case preShr:
		v >>= uint32(d.pimm) & 31
	default:
		v += uint32(d.pimm)
	}
	r[d.prd&15] = v
}

// rmeta is the cold half of a record, read only off the hot path.
type rmeta struct {
	pc     uint32 // the instruction's own pc
	head   uint32 // for a block's first record: the block's entry pc
	cp, np uint16 // memory records: cycles and instructions the block retires before it
	// A lowered call's mirror, and the library base it charges against.
	intrin intrinHandler
	lb     uint32
	link   uint32
}

// rland is a JALR landing: a head's record index and its check, as in
// rrec. Every landing checks, so chk == 0 marks a pc that is not a
// region head.
type rland struct {
	to, chk uint32
}

// region is one translated region.
type region struct {
	code []rrec
	meta []rmeta
	// land maps a JALR target pc-lo to its landing (every head checks
	// on landing).
	lo   uint32
	land []rland
}

// findBlob scans program memory for blob and returns its word offset,
// or -1 when the program does not contain it. Raw word equality is
// exact because the blobs are position-independent (matchBlob).
func findBlob(prog []uint32, blob []uint32) int32 {
	if len(blob) == 0 || len(blob) > len(prog) {
		return -1
	}
	w0 := blob[0]
	last := uint32(len(prog) - len(blob))
	for base := uint32(0); base <= last; base++ {
		if prog[base] == w0 && matchBlob(prog, base, blob) {
			return int32(base)
		}
	}
	return -1
}

// intrinsicFor resolves a JAL target word index to the intrinsic mirror
// of the SoftFloat routine it calls, against the blob offsets detected
// by resetBlocks. Returns a nil handler when the target is not a
// recognised routine entry.
func (c *CPU) intrinsicFor(target uint32) (intrinHandler, uint32) {
	if c.sfArith >= 0 && target >= uint32(c.sfArith) {
		if h, ok := arithIntrins[target-uint32(c.sfArith)]; ok {
			return h, uint32(c.sfArith)
		}
	}
	if c.sfCmp >= 0 && target >= uint32(c.sfCmp) {
		if h, ok := cmpIntrins[target-uint32(c.sfCmp)]; ok {
			return h, uint32(c.sfCmp)
		}
	}
	return nil, 0
}

// rblock is one head of a region under construction.
type rblock struct {
	bi     blockInfo
	idx    uint32 // record index of the head
	term   uint32 // record index of the terminator
	worst  uint32 // worst-case cycles from the head to the next check
	intrin intrinHandler
	lb     uint32
	// succ lists the static successors the region may follow: a
	// branch's target and fallthrough, or a non-lowered JAL's target.
	succ []uint32
}

// regionBuilder forms one region.
type regionBuilder struct {
	c       *CPU
	blocks  []rblock
	at      map[uint32]int // head pc -> index into blocks
	recs    int
	checked map[uint32]bool
	done    map[uint32]bool // worst computed
	g       *region
	exits   map[uint32]uint32 // exit record per pc left at
}

// add admits the block headed at pc into the region unless it is
// already there, lies outside program memory, belongs to a generated
// kernel, or would take the region past maxRegionRecs.
func (b *regionBuilder) add(pc uint32, entry bool) {
	if _, ok := b.at[pc]; ok || pc >= ProgWords {
		return
	}
	bi := scanBlockWords(b.c.Prog, pc)
	if !entry {
		if _, ok := b.c.kernelAt(pc, &bi); ok {
			return
		}
	}
	if b.recs+int(bi.n)+1 > maxRegionRecs && !entry {
		return
	}
	b.recs += int(bi.n) + 1
	blk := rblock{bi: bi}
	t := &bi.term
	switch {
	case isBranchOp(bi.termOp):
		blk.succ = []uint32{uint32(t.imm), pc + bi.n + 1}
	case bi.termOp == uint8(OpJAL):
		if t.rd == 15 {
			blk.intrin, blk.lb = b.c.intrinsicFor(uint32(t.imm))
		}
		if blk.intrin == nil {
			blk.succ = []uint32{uint32(t.imm)}
		}
	}
	b.at[pc] = len(b.blocks)
	b.blocks = append(b.blocks, blk)
}

// worstFrom is the worst-case cycle cost from the head at pc to the
// next budget check on any path, following only edges into unchecked
// heads. Every cycle in the region's control flow has a backward edge,
// whose target is checked, so the recursion terminates.
func (b *regionBuilder) worstFrom(pc uint32) uint32 {
	blk := &b.blocks[b.at[pc]]
	if b.done[pc] {
		return blk.worst
	}
	cont := func(s uint32) uint32 {
		if _, in := b.at[s]; !in || b.checked[s] {
			return 0
		}
		return b.worstFrom(s)
	}
	w := blk.bi.bodyCost
	switch op := blk.bi.termOp; {
	case isBranchOp(op):
		w += max(2+cont(blk.succ[0]), 1+cont(blk.succ[1]))
	case op == uint8(OpJAL) && blk.intrin == nil:
		w += 2 + cont(blk.succ[0])
	default:
		// JALR lands on a check or leaves; a lowered call's mirror checks
		// its own cost and resumes on a check; HALT, illegal words and
		// open blocks end the run or leave.
		w += termWorst(op)
	}
	blk = &b.blocks[b.at[pc]]
	blk.worst = w
	b.done[pc] = true
	return w
}

// to resolves the successor pc to a record index and check (see rrec);
// check forces a budget check on arrival (dynamic landings). A pc
// outside the region resolves to its exit record.
func (b *regionBuilder) to(pc uint32, check bool) (uint32, uint32) {
	i, ok := b.at[pc]
	if !ok {
		x, ok := b.exits[pc]
		if !ok {
			x = uint32(len(b.g.code))
			b.g.code = append(b.g.code, rrec{op: rOpExit, to: [2]uint32{pc}})
			b.g.meta = append(b.g.meta, rmeta{pc: pc, head: pc})
			b.exits[pc] = x
		}
		return x, 0
	}
	var chk uint32
	if check || b.checked[pc] {
		chk = b.worstFrom(pc) + 1
	}
	return b.blocks[i].idx, chk
}

// runtimeRegion forms the region entered at entry, binds it at the
// entry and at every other head of it the translation table has no
// entry for, and returns the entry's binding.
func (c *CPU) runtimeRegion(entry uint32) compiledBlock {
	b := &regionBuilder{c: c, at: map[uint32]int{}, checked: map[uint32]bool{}, done: map[uint32]bool{}, exits: map[uint32]uint32{}}
	b.add(entry, true)
	for q := 0; q < len(b.blocks); q++ {
		blk := &b.blocks[q]
		for _, s := range blk.succ {
			b.add(s, false)
		}
		// The resume point after a call (or a linking JALR) is where its
		// return lands.
		if op, t := blk.bi.termOp, &blk.bi.term; (op == uint8(OpJAL) || op == uint8(OpJALR)) && t.rd != 0 {
			b.add(blk.bi.entry+blk.bi.n+1, false)
		}
	}

	// Checked heads: the targets of backward edges.
	hasJALR := false
	lo, hi := entry, entry
	for q := range b.blocks {
		blk := &b.blocks[q]
		tpc := blk.bi.entry + blk.bi.n
		for _, s := range blk.succ {
			if _, in := b.at[s]; in && s <= tpc {
				b.checked[s] = true
			}
		}
		hasJALR = hasJALR || blk.bi.termOp == uint8(OpJALR)
		lo, hi = min(lo, blk.bi.entry), max(hi, blk.bi.entry)
	}

	// Layout: each head's superblock in admission order, entry first,
	// then the exit records.
	g := &region{}
	b.g = g
	for q := range b.blocks {
		blk := &b.blocks[q]
		blk.idx = uint32(len(g.code))
		// add appends a record — or, when the record before it is a
		// shift-add that has not been folded yet, folds that one in as
		// the new record's pre-op and takes its slot.
		pre := -1 // index of that shift-add record
		add := func(rec rrec, m rmeta, shiftAdd bool) {
			if pre >= 0 {
				sa := g.code[pre]
				rec.op |= rPre
				rec.prd, rec.prs, rec.pk, rec.pimm = sa.rd, sa.prs, sa.pk, sa.pimm
				g.code[pre], g.meta[pre] = rec, m
				blk.term = uint32(pre)
				pre = -1
				return
			}
			g.code = append(g.code, rec)
			g.meta = append(g.meta, m)
			blk.term = uint32(len(g.code) - 1)
			if shiftAdd {
				pre = len(g.code) - 1
			}
		}
		var cp, np uint32
		var d decoded
		for p := blk.bi.entry; p < blk.bi.entry+blk.bi.n; p++ {
			predecodeWordInto(c.Prog[p], p, &d)
			rec := rrec{op: d.op, rd: d.rd, rs1: d.rs1, rs2: d.rs2, imm: d.imm}
			m := rmeta{pc: p}
			switch d.op {
			case uint8(OpLW), uint8(OpLB), uint8(OpLBU), uint8(OpSW), uint8(OpSB):
				// Memory records always run: their faults and bus
				// accesses are architectural even when rd is r0.
				rec.rs2 = 0
				m.cp, m.np = uint16(cp), uint16(np)
				add(rec, m, false)
			case uint8(OpADDI), uint8(OpSLLI), uint8(OpSRLI), uint8(OpLUI):
				if d.rd == 0 {
					break
				}
				// A shift-add candidate also carries itself in pre-op form.
				rec.prs, rec.pimm = d.rs1, d.imm
				switch d.op {
				case uint8(OpSLLI):
					rec.pk = preShl
				case uint8(OpSRLI):
					rec.pk = preShr
				case uint8(OpLUI):
					rec.prs = 0
				}
				add(rec, m, true)
			default:
				if d.rd != 0 {
					add(rec, m, false)
				}
			}
			cp += plainCost(d.op)
			np++
		}

		bi := &blk.bi
		t := &bi.term
		rec := rrec{op: bi.termOp, rd: t.rd, rs1: t.rs1, rs2: t.rs2}
		m := rmeta{pc: bi.entry + bi.n}
		cost, n := bi.bodyCost, bi.n
		switch op := bi.termOp; {
		case isBranchOp(op):
			// The untaken cycle and the branch itself are charged with the
			// body; a taken branch adds one cycle.
			cost, n = cost+1, n+1
		case op == uint8(OpJAL) && blk.intrin == nil:
			cost, n = cost+2, n+1
			rec.to[0] = uint32(t.imm2)
		case op == uint8(OpJAL):
			rec.op = rOpCall
			m.intrin, m.lb, m.link = blk.intrin, blk.lb, uint32(t.imm2)
		case op == uint8(OpJALR):
			cost, n = cost+2, n+1
			rec.to = [2]uint32{uint32(t.imm2), uint32(t.imm)}
		case op == uint8(OpHALT):
			cost, n = cost+1, n+1
		case op == xopIllegal:
			rec.op, rec.to[0] = rOpIllegal, uint32(t.imm)
		default: // termNone
			rec.op = rOpOpen
		}
		rec.imm = int32(cost | n<<16)
		add(rec, m, false)
		g.meta[blk.idx].head = bi.entry
	}
	// Successors, now that every head has its record index. (Resolving
	// one may append an exit record, so the terminator is indexed
	// afresh for every store.)
	for q := range b.blocks {
		blk := &b.blocks[q]
		i := blk.term
		switch op := g.code[i].op &^ rPre; {
		case isBranchOp(op):
			to, chk := b.to(blk.succ[0], false)
			g.code[i].to[1], g.code[i].chk[1] = to, chk
			to, chk = b.to(blk.succ[1], false)
			g.code[i].to[0], g.code[i].chk[0] = to, chk
		case op == uint8(OpJAL):
			to, chk := b.to(blk.succ[0], false)
			g.code[i].to[1], g.code[i].chk[1] = to, chk
		case op == rOpCall:
			// A lowered call's fallback was not part of the worst-case
			// proof, so it must check wherever it lands.
			to, chk := b.to(uint32(blk.bi.term.imm), true)
			g.code[i].to[1], g.code[i].chk[1] = to, chk
			to, chk = b.to(blk.bi.entry+blk.bi.n+1, true)
			g.code[i].to[0], g.code[i].chk[0] = to, chk
		}
	}
	if hasJALR {
		g.lo = lo
		g.land = make([]rland, hi-lo+1)
		for k := range g.land {
			if _, in := b.at[lo+uint32(k)]; in {
				g.land[k].to, g.land[k].chk = b.to(lo+uint32(k), true)
			}
		}
	}

	for q := range b.blocks {
		blk := &b.blocks[q]
		pc := blk.bi.entry
		if q > 0 && c.blocks[pc].fn != nil {
			continue
		}
		idx := blk.idx
		c.blocks[pc] = compiledBlock{
			fn:    func(c *CPU, st *cst) int { return g.run(c, st, idx) },
			worst: b.worstFrom(pc),
			kind:  blockRuntime,
		}
	}
	return c.blocks[entry]
}

// run executes the region from the head at record index i until
// control leaves it. The hot loop lives in its own call-free function
// — a call anywhere in the loop makes Go's register allocator spill the
// loop state around every dispatch — and hands the records that need a
// call (bus accesses outside the RAM window, faults, intrinsic mirrors)
// back here, one at a time.
func (g *region) run(c *CPU, st *cst, i uint32) int {
	cyc, ins := st.cycles, st.instret
	for {
		var status int
		if i, cyc, ins, status = g.hot(st, i, cyc, ins); status != stCold {
			return status
		}
		r := st.r
		d, m := &g.code[i], &g.meta[i]
		switch d.op &^ rPre {
		case uint8(OpLW), uint8(OpSW):
			addr := r[d.rs1&15] + uint32(d.imm)
			cAt, nAt := cyc+uint64(m.cp), ins+uint64(m.np)
			if d.op&^rPre == uint8(OpSW) {
				if !st.storeSlow(c, addr, r[d.rd&15], m.pc, cAt, nAt) {
					return stErr
				}
			} else {
				v, ok := st.loadSlow(c, addr, m.pc, cAt, nAt)
				if !ok {
					return stErr
				}
				if d.rd != 0 {
					r[d.rd&15] = v
				}
			}
			i++
		case uint8(OpLB), uint8(OpLBU):
			addr := r[d.rs1&15] + uint32(d.imm)
			return st.fault(c, addr, m.pc, cyc+uint64(m.cp), ins+uint64(m.np), errByteLoadFault)
		case uint8(OpSB):
			addr := r[d.rs1&15] + uint32(d.imm)
			return st.fault(c, addr, m.pc, cyc+uint64(m.cp), ins+uint64(m.np), errByteStoreFault)
		case rOpCall:
			// A lowered call: the body is charged, then the mirror either
			// covers the call and its routine or declines and the call
			// runs as a plain jump.
			cn := uint32(d.imm)
			cyc, ins = cyc+uint64(cn&0xFFFF), ins+uint64(cn>>16)
			to, chk := d.to[0], d.chk[0]
			if ncyc, nins, ok := m.intrin(c, st, cyc, ins, m.link, m.lb); ok {
				cyc, ins = ncyc, nins
			} else {
				if d.rd != 0 {
					r[d.rd&15] = m.link
				}
				cyc, ins = cyc+2, ins+1
				to, chk = d.to[1], d.chk[1]
			}
			if st.stop-cyc < uint64(chk) {
				st.pc, st.cycles, st.instret = g.meta[to].head, cyc, ins
				return stBudget
			}
			i = to
		default: // rOpIllegal
			cn := uint32(d.imm)
			return st.illegal(c, uint32(d.to[0]), m.pc, cyc+uint64(cn&0xFFFF), ins+uint64(cn>>16))
		}
	}
}

// hot runs records from index i until one needs a call (status stCold,
// with i at that record and the counters at its block's start) or
// control leaves the region (a dispatcher status, with st set).
func (g *region) hot(st *cst, i uint32, cyc, ins uint64) (uint32, uint64, uint64, int) {
	r := st.r
	data := st.data
	code := g.code
	stop := st.stop
	var to, chk uint32
	for {
		d := &code[i]
		// Every op has a twin with the pre-op bit set, which runs the
		// pre-op and falls through into the op itself.
		switch d.op {
		case uint8(OpADD) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpADD):
			r[d.rd&15] = r[d.rs1&15] + r[d.rs2&15]
		case uint8(OpSUB) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSUB):
			r[d.rd&15] = r[d.rs1&15] - r[d.rs2&15]
		case uint8(OpAND) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpAND):
			r[d.rd&15] = r[d.rs1&15] & r[d.rs2&15]
		case uint8(OpOR) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpOR):
			r[d.rd&15] = r[d.rs1&15] | r[d.rs2&15]
		case uint8(OpXOR) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpXOR):
			r[d.rd&15] = r[d.rs1&15] ^ r[d.rs2&15]
		case uint8(OpSLL) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSLL):
			r[d.rd&15] = r[d.rs1&15] << (r[d.rs2&15] & 31)
		case uint8(OpSRL) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSRL):
			r[d.rd&15] = r[d.rs1&15] >> (r[d.rs2&15] & 31)
		case uint8(OpSRA) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSRA):
			r[d.rd&15] = uint32(int32(r[d.rs1&15]) >> (r[d.rs2&15] & 31))
		case uint8(OpMUL) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpMUL):
			r[d.rd&15] = r[d.rs1&15] * r[d.rs2&15]
		case uint8(OpMULHU) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpMULHU):
			r[d.rd&15] = uint32(uint64(r[d.rs1&15]) * uint64(r[d.rs2&15]) >> 32)
		case uint8(OpSLT) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSLT):
			r[d.rd&15] = b2u(int32(r[d.rs1&15]) < int32(r[d.rs2&15]))
		case uint8(OpSLTU) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSLTU):
			r[d.rd&15] = b2u(r[d.rs1&15] < r[d.rs2&15])
		case uint8(OpADDI) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpADDI):
			r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
		case uint8(OpANDI) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpANDI):
			r[d.rd&15] = r[d.rs1&15] & uint32(d.imm)
		case uint8(OpORI) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpORI):
			r[d.rd&15] = r[d.rs1&15] | uint32(d.imm)
		case uint8(OpXORI) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpXORI):
			r[d.rd&15] = r[d.rs1&15] ^ uint32(d.imm)
		case uint8(OpSLLI) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSLLI):
			r[d.rd&15] = r[d.rs1&15] << (uint32(d.imm) & 31)
		case uint8(OpSRLI) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSRLI):
			r[d.rd&15] = r[d.rs1&15] >> (uint32(d.imm) & 31)
		case uint8(OpSRAI) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSRAI):
			r[d.rd&15] = uint32(int32(r[d.rs1&15]) >> (uint32(d.imm) & 31))
		case uint8(OpSLTI) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSLTI):
			r[d.rd&15] = b2u(int32(r[d.rs1&15]) < d.imm)
		case uint8(OpSLTIU) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSLTIU):
			r[d.rd&15] = b2u(r[d.rs1&15] < uint32(d.imm))
		case uint8(OpLUI) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpLUI):
			r[d.rd&15] = uint32(d.imm)

		case uint8(OpLW) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpLW):
			addr := uint(r[d.rs1&15] + uint32(d.imm))
			if addr&3 != 0 || addr > DataBytes-4 {
				return i, cyc, ins, stCold
			}
			if d.rd != 0 {
				r[d.rd&15] = binary.LittleEndian.Uint32(data[addr:])
			}
		case uint8(OpLB) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpLB):
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr >= DataBytes {
				return i, cyc, ins, stCold
			}
			if d.rd != 0 {
				r[d.rd&15] = uint32(int32(int8(data[addr])))
			}
		case uint8(OpLBU) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpLBU):
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr >= DataBytes {
				return i, cyc, ins, stCold
			}
			if d.rd != 0 {
				r[d.rd&15] = uint32(data[addr])
			}
		case uint8(OpSW) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSW):
			addr := uint(r[d.rs1&15] + uint32(d.imm))
			if addr&3 != 0 || addr > DataBytes-4 {
				return i, cyc, ins, stCold
			}
			binary.LittleEndian.PutUint32(data[addr:], r[d.rd&15])
		case uint8(OpSB) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpSB):
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr >= DataBytes {
				return i, cyc, ins, stCold
			}
			data[addr] = byte(r[d.rd&15])

		// ---- terminators ----
		case uint8(OpBEQ) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpBEQ):
			if r[d.rs1&15] == r[d.rs2&15] {
				goto taken
			}
			goto untaken
		case uint8(OpBNE) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpBNE):
			if r[d.rs1&15] != r[d.rs2&15] {
				goto taken
			}
			goto untaken
		case uint8(OpBLT) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpBLT):
			if int32(r[d.rs1&15]) < int32(r[d.rs2&15]) {
				goto taken
			}
			goto untaken
		case uint8(OpBGE) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpBGE):
			if int32(r[d.rs1&15]) >= int32(r[d.rs2&15]) {
				goto taken
			}
			goto untaken
		case uint8(OpBLTU) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpBLTU):
			if r[d.rs1&15] < r[d.rs2&15] {
				goto taken
			}
			goto untaken
		case uint8(OpBGEU) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpBGEU):
			if r[d.rs1&15] >= r[d.rs2&15] {
				goto taken
			}
			goto untaken
		case uint8(OpJAL) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpJAL):
			if d.rd != 0 {
				r[d.rd&15] = uint32(d.to[0])
			}
			cn := uint32(d.imm)
			cyc, ins = cyc+uint64(cn&0xFFFF), ins+uint64(cn>>16)
			to, chk = d.to[1], d.chk[1]
			goto edge
		case uint8(OpJALR) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpJALR):
			target := (r[d.rs1&15] + uint32(d.to[1])) / 4
			if d.rd != 0 {
				r[d.rd&15] = uint32(d.to[0])
			}
			cn := uint32(d.imm)
			cyc, ins = cyc+uint64(cn&0xFFFF), ins+uint64(cn>>16)
			if k := target - g.lo; k < uint32(len(g.land)) && g.land[k].chk != 0 {
				to, chk = g.land[k].to, g.land[k].chk
				goto edge
			}
			st.pc, st.cycles, st.instret = target, cyc, ins
			return i, cyc, ins, stOK
		case rOpExit:
			st.pc, st.cycles, st.instret = uint32(d.to[0]), cyc, ins
			return i, cyc, ins, stOK
		case uint8(OpHALT) | rPre:
			d.pre(r)
			fallthrough
		case uint8(OpHALT):
			cn := uint32(d.imm)
			st.pc = g.meta[i].pc + 1
			st.cycles, st.instret = cyc+uint64(cn&0xFFFF), ins+uint64(cn>>16)
			return i, cyc, ins, stHalt
		case rOpOpen | rPre:
			d.pre(r)
			fallthrough
		case rOpOpen:
			// The scan ran off the end of program memory: the
			// dispatcher's pc range check faults exactly where the
			// reference loop would.
			cn := uint32(d.imm)
			st.pc = g.meta[i].pc
			st.cycles, st.instret = cyc+uint64(cn&0xFFFF), ins+uint64(cn>>16)
			return i, cyc, ins, stOK
		case rOpCall | rPre, rOpIllegal | rPre:
			d.pre(r)
			return i, cyc, ins, stCold
		default: // rOpCall, rOpIllegal
			return i, cyc, ins, stCold
		}
		i++
		continue
	untaken:
		{
			cn := uint32(d.imm)
			cyc, ins = cyc+uint64(cn&0xFFFF), ins+uint64(cn>>16)
			to, chk = d.to[0], d.chk[0]
			goto edge
		}
	taken:
		{
			cn := uint32(d.imm)
			cyc, ins = cyc+uint64(cn&0xFFFF)+1, ins+uint64(cn>>16)
			to, chk = d.to[1], d.chk[1]
		}
	edge:
		// Leave at the successor head when the budget could expire
		// before its next check.
		if stop-cyc < uint64(chk) {
			st.pc, st.cycles, st.instret = g.meta[to].head, cyc, ins
			return i, cyc, ins, stBudget
		}
		i = to
	}
}
