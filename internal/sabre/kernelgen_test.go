package sabre

// kernelgen_test.go generates kernels_gen.go, the region kernels of the
// compiled execution engine (runcompiled.go). It is a test so that it
// is built by the toolchain the repo already uses and so staleness is
// caught by `go test`: without -update-kernels the test regenerates the
// source in memory and fails if the committed file differs.
//
// The generator assembles the bundled programs (Kalman, boresight,
// control, the batch harness over every SoftFloat routine) and emits
// each at one of two granularities:
//
//   - *Whole-program kernels* for the application units (Kalman, fixed
//     boresight, fixed Kalman): one Go function covering the entire
//     program, JAL calls lowered to gotos with the link register
//     written, JALR returns to a constant-case switch over every known
//     leader. A run dispatches once and executes to completion.
//   - *Region kernels* for everything else: the program is partitioned
//     into the intervals between JAL targets — whole routines or loop
//     bodies — and one function is emitted per distinct region, with
//     entry dispatch a `switch st.pc - base` over the region's
//     registered leaders (region start, post-call resume points,
//     cross-region branch targets).
//
// Shared emission rules:
//
//   - internal control flow is lowered to gotos between labelled basic
//     blocks, so a routine executes without returning to the block
//     dispatcher;
//   - budget checks are *hoisted*: only leaders and backward control-
//     flow targets re-check the cycle budget (every loop must cross
//     one per iteration), and each checked head's threshold folds in
//     the worst-case cost of the unchecked forward-only heads it
//     dominates (a memoised DAG recursion over forward edges), so
//     straight-line chains of blocks pay one compare. stBudget is
//     still returned at an exact instruction boundary;
//   - loads and stores take an open-coded byte-assembled fast path for
//     in-RAM aligned addresses (measurably faster here than a sliced
//     little-endian helper) and fall back to st.loadSlow/storeSlow
//     (which flush exact mid-block counters) for MMIO and faults;
//   - whole-program kernels address the register file as r[N] array
//     elements directly ("array-register mode"): with hundreds of join
//     points the compiler spills per-register locals to the stack and
//     shuffles at every join, so constant-index array slots are
//     cheaper. Region kernels, with few joins, keep register locals
//     cached and write back only the dirty ones on exit.
//
// Regions are deduplicated across programs by their position-
// independent signature (block.go), so the shared SoftFloat library is
// emitted once no matter how many programs link it; leader sets and
// leader keys are unioned across all occurrences. Whole-unit kernels
// register every leader with backOff equal to its absolute offset, so
// they bind only at base 0 — which is what makes their constant-case
// return switches sound. The generator calls the same
// scanBlockWords/blockKeyWords/encRec the translator uses at run time,
// so registered keys and signatures agree with the lookup by
// construction.

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"sort"
	"testing"
)

var updateKernels = flag.Bool("update-kernels", false, "rewrite kernels_gen.go from the bundled programs")

// genUnit is one assembled program, padded to the full program store
// (zero words decode to HALT, exactly what LoadProgram leaves there).
// Units marked whole are emitted as a single whole-program kernel: one
// Go function covering the entire program, calls lowered to gotos with
// the link register written, returns to a switch over the known return
// points — so a run dispatches once and executes to completion with
// the register file cached in machine registers throughout. Whole-unit
// kernels register leaders with backOff equal to the absolute offset,
// so they bind only at base 0 (the only address LoadProgram uses),
// which is what makes their constant-case return switches sound.
type genUnit struct {
	name  string
	n     uint32 // assembled length in words
	words []uint32
	syms  map[string]uint32
	whole bool
}

func kernelGenUnits(t testing.TB) []genUnit {
	var units []genUnit
	add := func(name string, p *Program, err error, whole bool) {
		if err != nil {
			t.Fatalf("assemble %s: %v", name, err)
		}
		words := make([]uint32, ProgWords)
		copy(words, p.Words)
		units = append(units, genUnit{name: name, n: uint32(len(p.Words)), words: words, syms: p.Symbols, whole: whole})
	}
	p, err := KalmanProgram()
	add("kalman", p, err, true)
	p, err = FxBoresightProgram()
	add("fxboresight", p, err, true)
	p, err = Assemble(fxKalmanMain)
	add("fxkalman", p, err, true)
	p, err = ControlProgram()
	add("control", p, err, false)
	for _, r := range batchRoutines {
		p, err = BatchProgram(r)
		add("batch/"+r, p, err, false)
	}
	return units
}

// unitRegion is one region of one unit before cross-unit merging.
// recs are rebased: branch/JAL targets are relative to the region base
// (wrapping uint32 arithmetic for out-of-region targets).
type unitRegion struct {
	sym      string
	end      uint32 // region length in words
	words    []uint32
	recs     []decoded
	sig      []uint64
	leaders  map[uint32]map[uint64]bool // rel offset -> runtime block keys
	btargets map[uint32]bool            // internal branch targets (rel)
	// retTargets, non-nil for whole-program kernels, lists the offsets an
	// indirect jump (JALR) may land on without leaving the kernel: every
	// registered leader. JALR then compiles to a constant-case switch
	// over these offsets — sound because whole-unit leaders register with
	// backOff == absolute offset, pinning the kernel to base 0.
	retTargets []uint32
	// intrins maps a JAL target offset to the native SoftFloat mirror
	// that replaces the emulated routine body (whole units only, and
	// only after the unit's library bytes verify against the canonical
	// blobs).
	intrins map[uint32]intrinSite
}

// intrinSite is one lowerable call target: the mirror's function name
// and the word offset of the owning library blob within the unit.
type intrinSite struct {
	fn string
	lb uint32
}

// intrinSitesFor verifies the unit embeds the canonical SoftFloat
// blobs and, if so, maps every recognised routine entry to its mirror.
func intrinSitesFor(u genUnit) map[uint32]intrinSite {
	sites := map[uint32]intrinSite{}
	ab, okA := u.syms["sf_shr_jam"]
	okA = okA && matchBlob(u.words[:u.n], ab, sfOff.arith)
	cb, okC := u.syms["sf_cmp_prep"]
	okC = okC && matchBlob(u.words[:u.n], cb, sfOff.cmp)
	for routine, fn := range intrinSyms {
		t, ok := u.syms[routine]
		if !ok {
			continue
		}
		off, cmp, known := intrinEntryOffset(routine)
		if !known {
			continue
		}
		if cmp {
			if okC && t == cb+off {
				sites[t] = intrinSite{fn, cb}
			}
		} else if okA && t == ab+off {
			sites[t] = intrinSite{fn, ab}
		}
	}
	return sites
}

func analyzeUnit(u genUnit) []unitRegion {
	n := u.n
	recs := make([]decoded, n)
	for p := uint32(0); p < n; p++ {
		predecodeWordInto(u.words[p], p, &recs[p])
	}

	// Region boundaries: program start plus every in-range JAL target
	// (calls and plain jumps alike — loop heads are jump targets).
	isBound := map[uint32]bool{0: true}
	for p := uint32(0); p < n; p++ {
		if recs[p].op == uint8(OpJAL) {
			if t := uint32(recs[p].imm); t < n {
				isBound[t] = true
			}
		}
	}
	bounds := make([]uint32, 0, len(isBound)+1)
	for b := range isBound {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	bounds = append(bounds, n)
	regionStart := func(pc uint32) uint32 {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > pc }) - 1
		return bounds[i]
	}

	// Leaders: offsets the dispatcher can enter a region at — the
	// region start, the resume point after every call, and the targets
	// of branches that cross a region boundary.
	leadersAbs := map[uint32]bool{}
	for _, b := range bounds[:len(bounds)-1] {
		leadersAbs[b] = true
	}
	btAbs := map[uint32]bool{}
	for p := uint32(0); p < n; p++ {
		switch op := recs[p].op; {
		case op == uint8(OpJAL) || op == uint8(OpJALR):
			if p+1 < n {
				leadersAbs[p+1] = true
			}
		case isBranchOp(op):
			if t := uint32(recs[p].imm); t < n {
				if !u.whole && regionStart(t) != regionStart(p) {
					leadersAbs[t] = true
				} else {
					btAbs[t] = true
				}
			}
		}
	}

	if u.whole {
		// Whole-program kernel: one region spanning the entire program.
		// Calls stay internal (gotos), and the leader set — routine
		// entries plus post-call resume points — doubles as the constant
		// case set of every JALR's return switch.
		ur := unitRegion{
			sym:      u.name,
			end:      n,
			words:    u.words[:n],
			leaders:  map[uint32]map[uint64]bool{},
			btargets: btAbs,
		}
		for p := uint32(0); p < n; p++ {
			ur.recs = append(ur.recs, recs[p])
			ur.sig = append(ur.sig, encRec(&recs[p], 0))
		}
		for l := range leadersAbs {
			bi := scanBlockWords(u.words, l)
			ur.leaders[l] = map[uint64]bool{blockKeyWords(u.words, l, &bi): true}
		}
		ur.retTargets = sortedU32(leadersAbs)
		ur.intrins = intrinSitesFor(u)
		return []unitRegion{ur}
	}

	symAt := map[uint32]string{}
	{
		names := make([]string, 0, len(u.syms))
		for s := range u.syms {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			if _, taken := symAt[u.syms[s]]; !taken {
				symAt[u.syms[s]] = s
			}
		}
	}

	var out []unitRegion
	for i := 0; i+1 < len(bounds); i++ {
		s, e := bounds[i], bounds[i+1]
		ur := unitRegion{
			sym:      symAt[s],
			end:      e - s,
			words:    u.words[s:e],
			leaders:  map[uint32]map[uint64]bool{},
			btargets: map[uint32]bool{},
		}
		for p := s; p < e; p++ {
			d := recs[p]
			if d.op == uint8(OpJAL) || isBranchOp(d.op) {
				d.imm -= int32(s)
			}
			ur.recs = append(ur.recs, d)
			ur.sig = append(ur.sig, encRec(&d, 0))
		}
		for l := range leadersAbs {
			if l >= s && l < e {
				// The leader's runtime lookup key: hash of the basic
				// block entered there, scanned over the padded unit
				// exactly as the translator scans program memory (the
				// block may extend past the region end).
				bi := scanBlockWords(u.words, l)
				ur.leaders[l-s] = map[uint64]bool{blockKeyWords(u.words, l, &bi): true}
			}
		}
		for t := range btAbs {
			if t >= s && t < e {
				ur.btargets[t-s] = true
			}
		}
		out = append(out, ur)
	}
	return out
}

// genRegion is a deduplicated region with leader sets unioned across
// every unit it appears in.
type genRegion struct {
	sym        string
	units      []string
	end        uint32
	words      []uint32
	recs       []decoded
	sig        []uint64
	leaders    map[uint32]map[uint64]bool
	btargets   map[uint32]bool
	retTargets []uint32
	intrins    map[uint32]intrinSite
}

func sigFingerprint(sig []uint64) string {
	var b bytes.Buffer
	for _, e := range sig {
		fmt.Fprintf(&b, "%016x", e)
	}
	return b.String()
}

func mergeRegions(units []genUnit) []*genRegion {
	var regions []*genRegion
	index := map[string]*genRegion{}
	for _, u := range units {
		for _, ur := range analyzeUnit(u) {
			fp := sigFingerprint(ur.sig)
			rg := index[fp]
			if rg == nil {
				rg = &genRegion{
					sym: ur.sym, end: ur.end, words: ur.words, recs: ur.recs, sig: ur.sig,
					leaders:    map[uint32]map[uint64]bool{},
					btargets:   map[uint32]bool{},
					retTargets: ur.retTargets,
					intrins:    ur.intrins,
				}
				index[fp] = rg
				regions = append(regions, rg)
			}
			if len(rg.units) == 0 || rg.units[len(rg.units)-1] != u.name {
				rg.units = append(rg.units, u.name)
			}
			for off, keys := range ur.leaders {
				if rg.leaders[off] == nil {
					rg.leaders[off] = map[uint64]bool{}
				}
				for k := range keys {
					rg.leaders[off][k] = true
				}
			}
			for t := range ur.btargets {
				rg.btargets[t] = true
			}
		}
	}
	return regions
}

// ---- emission ----

func sortedU32(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type regionEmit struct {
	b     *bytes.Buffer
	rg    *genRegion
	heads map[uint32]bool
	// Register allocation: every guest register a reachable record
	// touches is cached in a Go local (r0 stays a literal zero), so the
	// Go compiler can keep the region's working set in machine
	// registers. Written registers are stored back to the architectural
	// array at every exit — and only there.
	loc [16]bool // register has a local
	wr  [16]bool // register is written by reachable code
	// Exit paths share common write-back tails (budgetOut/errOut/okOut)
	// instead of inlining the register write-back at every site, keeping
	// the hot code compact; errOut/okOut are emitted only when referenced.
	useErr bool
	useOK  bool
	// Budget checks are hoisted: only checked heads (leaders and backward
	// control-flow targets) test the budget, against the worst-case cost
	// of the longest path to the next checked head (wmemo caches the
	// fold). Every loop still crosses a check each iteration, because a
	// cycle in the control flow needs a backward edge.
	checked map[uint32]bool
	wmemo   map[uint32]uint32
	// Whole-program kernels address the architectural register array
	// directly instead of caching registers in locals: with hundreds of
	// join points (the return switch alone has one per leader) the
	// register allocator would spill the locals anyway, and every join
	// would shuffle them between canonical stack slots. Array slots are
	// single loads/stores with no join cost and need no write-back.
	arrayRegs bool
}

// reg renders a register read; r0 reads as literal zero, every other
// register as its cached local.
func (g *regionEmit) reg(i uint8) string {
	if i == 0 {
		return "0"
	}
	if g.arrayRegs {
		return fmt.Sprintf("r[%d]", i)
	}
	return fmt.Sprintf("r%d", i)
}

// wb emits the register write-back: cached locals of written registers
// are committed to the architectural register file. Every return path
// of the region function runs this first.
func (g *regionEmit) wb() {
	var lhs, rhs string
	for i := 1; i < 16; i++ {
		if g.wr[i] {
			if lhs != "" {
				lhs += ", "
				rhs += ", "
			}
			lhs += fmt.Sprintf("r[%d]", i)
			rhs += fmt.Sprintf("r%d", i)
		}
	}
	if lhs != "" {
		g.f("%s = %s", lhs, rhs)
	}
}

// regUse classifies one record's register reads and its written
// register (0 = none; r0 writes are architectural no-ops).
func regUse(d *decoded) (reads [2]uint8, write uint8) {
	switch {
	case d.op == uint8(OpHALT) || d.op == xopIllegal:
	case isBranchOp(d.op):
		reads = [2]uint8{d.rs1, d.rs2}
	case d.op == uint8(OpJAL):
		write = d.rd
	case d.op == uint8(OpJALR):
		reads = [2]uint8{d.rs1, 0}
		write = d.rd
	default:
		switch Opcode(d.op) {
		case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA,
			OpMUL, OpMULHU, OpSLT, OpSLTU:
			reads = [2]uint8{d.rs1, d.rs2}
			write = d.rd
		case OpLUI:
			write = d.rd
		case OpSW, OpSB:
			reads = [2]uint8{d.rs1, d.rd}
		default: // I-type ALU, LW, LB, LBU
			reads = [2]uint8{d.rs1, 0}
			write = d.rd
		}
	}
	return
}

func (g *regionEmit) f(format string, args ...any) {
	fmt.Fprintf(g.b, format+"\n", args...)
}

// blockEnd returns the index of the record ending the block entered at
// h: the first terminator, or the next block head (term=false), or the
// region end.
func (g *regionEmit) blockEnd(h uint32) (p uint32, term bool) {
	for p = h; p < g.rg.end; p++ {
		// The head test must precede the terminator test: a terminator
		// that is itself a block head (a branch that is also a branch
		// target) belongs to its own block, else the previous block
		// would duplicate it and bypass its budget check.
		if p > h && g.heads[p] {
			return p, false
		}
		if isTermOp(g.rg.recs[p].op) {
			return p, true
		}
	}
	return g.rg.end, false
}

// checkedHeads returns the heads that carry a budget check: the leaders
// (where the bound must agree with the dispatcher's pre-check) and every
// backward control-flow target, so each loop iteration crosses at least
// one check. Unreachable entries are harmless — they are never emitted.
func (g *regionEmit) checkedHeads() map[uint32]bool {
	checked := map[uint32]bool{}
	for l := range g.rg.leaders {
		checked[l] = true
	}
	for p, d := range g.rg.recs {
		if isBranchOp(d.op) || d.op == uint8(OpJAL) {
			if t := uint32(d.imm); t < g.rg.end && t <= uint32(p) {
				checked[t] = true
			}
		}
	}
	return checked
}

// headWorst is the worst-case cycle cost from a head to the next budget
// check — the bound a checked head tests, proving the reference engine
// would retire every instruction on any path to the next check. Costs
// of unchecked successor heads fold in recursively; the recursion only
// follows forward edges (backward targets are checked), so it
// terminates, and JALR needs no continuation because every indirect
// target that stays in the kernel is a checked leader.
func (g *regionEmit) headWorst(h uint32) uint32 {
	if g.checked == nil {
		g.checked = g.checkedHeads()
		g.wmemo = map[uint32]uint32{}
	}
	if w, ok := g.wmemo[h]; ok {
		return w
	}
	end, term := g.blockEnd(h)
	var w uint32
	for q := h; q < end; q++ {
		w += plainCost(g.rg.recs[q].op)
	}
	cont := func(t uint32) uint32 {
		if t >= g.rg.end || g.checked[t] {
			return 0
		}
		return g.headWorst(t)
	}
	if !term {
		if end < g.rg.end {
			w += cont(end)
		}
		g.wmemo[h] = w
		return w
	}
	d := &g.rg.recs[end]
	switch {
	case isBranchOp(d.op):
		taken, fall := uint32(2), uint32(1)
		if t := uint32(d.imm); t < g.rg.end {
			taken += cont(t)
		}
		if end+1 < g.rg.end {
			fall += cont(end + 1)
		}
		if fall > taken {
			taken = fall
		}
		w += taken
	case d.op == uint8(OpJAL):
		w += 2
		if t := uint32(d.imm); t < g.rg.end {
			w += cont(t)
		}
	default:
		w += termWorst(d.op)
	}
	g.wmemo[h] = w
	return w
}

// exit emits a region exit: counters committed with the block prefix
// folded in, pc to an absolute target (base-relative rel, wrapping),
// and the register write-back via the shared okOut tail for ordinary
// exits (rare statuses write back inline).
func (g *regionEmit) exit(rel uint32, cyc, ins uint32, status string) {
	g.commit(cyc, ins)
	pc := fmt.Sprintf("base + %d", rel)
	if rel > g.rg.end {
		pc = fmt.Sprintf("base + %#x", rel)
	}
	if status == "stOK" {
		g.f("st.pc = %s", pc)
		g.f("goto okOut")
		g.useOK = true
		return
	}
	g.wb()
	g.f("st.pc = %s", pc)
	g.f("st.cycles, st.instret = cycles, instret")
	g.f("return %s", status)
}

// commit emits the local counter update ending a block arm.
func (g *regionEmit) commit(cyc, ins uint32) {
	if cyc != 0 || ins != 0 {
		g.f("cycles, instret = cycles+%d, instret+%d", cyc, ins)
	}
}

// plainRec emits one straight-line record. cp/np are the cycle and
// instruction prefixes already accumulated in this block (the flush
// constants the slow paths need).
func (g *regionEmit) plainRec(d *decoded, off, cp, np uint32) {
	g.f("// %03x: %s", off, Disassemble(g.rg.words[off]))
	rd := g.reg(d.rd)
	a, b := g.reg(d.rs1), g.reg(d.rs2)
	imm := uint32(d.imm)
	assign := func(format string, args ...any) {
		if d.rd == 0 {
			g.f("// r0 write elided")
			return
		}
		g.f(rd+" = "+format, args...)
	}
	switch d.op {
	case uint8(OpADD):
		assign("%s + %s", a, b)
	case uint8(OpSUB):
		assign("%s - %s", a, b)
	case uint8(OpAND):
		assign("%s & %s", a, b)
	case uint8(OpOR):
		assign("%s | %s", a, b)
	case uint8(OpXOR):
		assign("%s ^ %s", a, b)
	case uint8(OpSLL):
		assign("%s << (%s & 31)", a, b)
	case uint8(OpSRL):
		assign("%s >> (%s & 31)", a, b)
	case uint8(OpSRA):
		assign("uint32(int32(%s) >> (%s & 31))", a, b)
	case uint8(OpMUL):
		assign("%s * %s", a, b)
	case uint8(OpMULHU):
		assign("uint32(uint64(%s) * uint64(%s) >> 32)", a, b)
	case uint8(OpSLT):
		assign("b2u(int32(%s) < int32(%s))", a, b)
	case uint8(OpSLTU):
		assign("b2u(%s < %s)", a, b)
	case uint8(OpADDI):
		assign("%s + %#x", a, imm)
	case uint8(OpANDI):
		assign("%s & %#x", a, imm)
	case uint8(OpORI):
		assign("%s | %#x", a, imm)
	case uint8(OpXORI):
		assign("%s ^ %#x", a, imm)
	case uint8(OpSLLI):
		assign("%s << %d", a, imm)
	case uint8(OpSRLI):
		assign("%s >> %d", a, imm)
	case uint8(OpSRAI):
		assign("uint32(int32(%s) >> %d)", a, imm)
	case uint8(OpSLTI):
		assign("b2u(int32(%s) < %d)", a, d.imm)
	case uint8(OpSLTIU):
		assign("b2u(%s < %#x)", a, imm)
	case uint8(OpLUI):
		assign("%#x", imm)
	case uint8(OpLW):
		g.f("a = %s + %#x", a, imm)
		// The aligned in-RAM test is phrased a <= DataBytes-4 (equivalent
		// to the bus's addr+3 < DataBytes window for aligned addresses) so
		// the compiler can prove a+3 in bounds, drop the per-byte bounds
		// checks, and fuse the four byte loads into one 32-bit load.
		g.f("if a&3 == 0 && a <= DataBytes-4 {")
		if d.rd != 0 {
			g.f("%s = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24", rd)
		} else {
			g.f("_ = data[a]")
		}
		g.f("} else {")
		g.f("if v, ok = st.loadSlow(c, a, base+%d, cycles+%d, instret+%d); !ok {", off, cp, np)
		g.f("goto errOut")
		g.f("}")
		if d.rd != 0 {
			g.f("%s = v", rd)
		}
		g.f("}")
		g.useErr = true
	case uint8(OpLB), uint8(OpLBU):
		g.f("a = %s + %#x", a, imm)
		g.f("if a >= DataBytes {")
		g.f("_ = st.fault(c, a, base+%d, cycles+%d, instret+%d, errByteLoadFault)", off, cp, np)
		g.f("goto errOut")
		g.f("}")
		g.useErr = true
		if d.rd != 0 {
			if d.op == uint8(OpLB) {
				g.f("%s = uint32(int32(int8(data[a])))", rd)
			} else {
				g.f("%s = uint32(data[a])", rd)
			}
		}
	case uint8(OpSW):
		g.f("a = %s + %#x", a, imm)
		g.f("v = %s", g.reg(d.rd))
		g.f("if a&3 == 0 && a <= DataBytes-4 {")
		g.f("data[a] = byte(v)")
		g.f("data[a+1] = byte(v >> 8)")
		g.f("data[a+2] = byte(v >> 16)")
		g.f("data[a+3] = byte(v >> 24)")
		g.f("} else if !st.storeSlow(c, a, v, base+%d, cycles+%d, instret+%d) {", off, cp, np)
		g.f("goto errOut")
		g.f("}")
		g.useErr = true
	case uint8(OpSB):
		g.f("a = %s + %#x", a, imm)
		g.f("if a >= DataBytes {")
		g.f("_ = st.fault(c, a, base+%d, cycles+%d, instret+%d, errByteStoreFault)", off, cp, np)
		g.f("goto errOut")
		g.f("}")
		g.useErr = true
		g.f("data[a] = byte(%s)", g.reg(d.rd))
	default:
		panic(fmt.Sprintf("plainRec: op %d", d.op))
	}
}

var branchCond = map[uint8]string{
	uint8(OpBEQ):  "%s == %s",
	uint8(OpBNE):  "%s != %s",
	uint8(OpBLT):  "int32(%s) < int32(%s)",
	uint8(OpBGE):  "int32(%s) >= int32(%s)",
	uint8(OpBLTU): "%s < %s",
	uint8(OpBGEU): "%s >= %s",
}

// termRec emits a block terminator with the block's cp/np prefix folded
// into each arm. Returns whether control falls through to the next head.
func (g *regionEmit) termRec(d *decoded, off, cp, np uint32) (fallsThrough bool) {
	e := g.rg.end
	g.f("// %03x: %s", off, Disassemble(g.rg.words[off]))
	switch {
	case isBranchOp(d.op):
		g.f("if "+branchCond[d.op]+" {", g.reg(d.rs1), g.reg(d.rs2))
		if t := uint32(d.imm); t < e {
			g.commit(cp+2, np+1)
			g.f("goto L%d", t)
		} else {
			g.exit(t, cp+2, np+1, "stOK")
		}
		g.f("}")
		if off+1 < e {
			g.commit(cp+1, np+1)
			return true
		}
		g.exit(e, cp+1, np+1, "stOK")
		return false
	case d.op == uint8(OpJAL):
		if site, ok := g.rg.intrins[uint32(d.imm)]; ok && d.rd == 15 && off+1 < e {
			// Recognised SoftFloat routine: try the native mirror, which
			// commits the routine's exact dynamic cycle/instret cost and
			// full architectural effect, then resume at the return point.
			// The mirror declines (mutating nothing) when the remaining
			// budget does not strictly cover its cost, so the emulated
			// path below keeps budget expiry instruction-boundary exact.
			g.f("if ncyc, nins, iok := %s(c, st, cycles+%d, instret+%d, (base+%d)*4, base+%d); iok {",
				site.fn, cp, np, off+1, site.lb)
			g.f("cycles, instret = ncyc, nins")
			g.f("goto L%d", off+1)
			g.f("}")
		}
		if d.rd != 0 {
			g.f("%s = (base + %d) * 4", g.reg(d.rd), off+1)
		}
		if t := uint32(d.imm); t < e {
			g.commit(cp+2, np+1)
			g.f("goto L%d", t)
		} else {
			g.exit(t, cp+2, np+1, "stOK")
		}
		return false
	case d.op == uint8(OpJALR):
		g.f("v = (%s + %#x) / 4", g.reg(d.rs1), uint32(d.imm))
		if d.rd != 0 {
			g.f("%s = (base + %d) * 4", g.reg(d.rd), off+1)
		}
		g.commit(cp+2, np+1)
		if len(g.rg.retTargets) > 0 {
			// Whole-program kernel (pinned to base 0): dispatch the
			// indirect target to its label when it is a known leader —
			// the return of a call, or any routine entry — so calls and
			// returns never leave the kernel.
			g.f("switch v {")
			for _, rt := range g.rg.retTargets {
				g.f("case %d:", rt)
				g.f("goto L%d", rt)
			}
			g.f("default:")
			g.f("st.pc = v")
			g.f("goto okOut")
			g.f("}")
		} else {
			g.f("st.pc = v")
			g.f("goto okOut")
		}
		g.useOK = true
		return false
	case d.op == uint8(OpHALT):
		g.exit(off+1, cp+1, np+1, "stHalt")
		return false
	case d.op == xopIllegal:
		g.f("_ = st.illegal(c, %d, base+%d, cycles+%d, instret+%d)", uint32(d.imm), off, cp, np)
		g.f("goto errOut")
		g.useErr = true
		return false
	}
	panic(fmt.Sprintf("termRec: op %d", d.op))
}

func emitRegion(buf *bytes.Buffer, idx int, rg *genRegion) {
	g := &regionEmit{b: buf, rg: rg, heads: map[uint32]bool{0: true}}
	for l := range rg.leaders {
		g.heads[l] = true
	}
	for t := range rg.btargets {
		g.heads[t] = true
	}
	for p, d := range rg.recs {
		if isTermOp(d.op) && uint32(p)+1 < rg.end {
			g.heads[uint32(p)+1] = true
		}
	}
	g.checked = g.checkedHeads()
	g.wmemo = map[uint32]uint32{}
	g.arrayRegs = rg.retTargets != nil

	// Reachability from the leaders (the only external entries) decides
	// which heads are emitted and which labels are referenced, so the
	// generated function contains no unreachable code or unused labels.
	reach := map[uint32]bool{}
	used := map[uint32]bool{}
	var visit func(uint32)
	visit = func(h uint32) {
		if reach[h] {
			return
		}
		reach[h] = true
		p, term := g.blockEnd(h)
		if !term {
			if p < rg.end {
				visit(p)
			}
			return
		}
		d := &rg.recs[p]
		switch {
		case isBranchOp(d.op):
			if t := uint32(d.imm); t < rg.end {
				used[t] = true
				visit(t)
			}
			if p+1 < rg.end {
				visit(p + 1)
			}
		case d.op == uint8(OpJAL):
			if t := uint32(d.imm); t < rg.end {
				used[t] = true
				visit(t)
			}
		}
	}
	leaderOffs := sortedU32(mapKeysSet(rg.leaders))
	for _, l := range leaderOffs {
		used[l] = true
		visit(l)
	}

	// Register usage over reachable code only (an unreachable record
	// must not force a local the emitted code never mentions).
	for h := range reach {
		if g.arrayRegs {
			break
		}
		end, term := g.blockEnd(h)
		note := func(d *decoded) {
			reads, write := regUse(d)
			if write == 0 && d.op >= uint8(OpADD) && d.op <= uint8(OpLUI) {
				return // ALU write to r0: the whole record is elided
			}
			for _, rr := range reads {
				if rr != 0 {
					g.loc[rr] = true
				}
			}
			if write != 0 {
				g.loc[write] = true
				g.wr[write] = true
			}
		}
		for p := h; p < end; p++ {
			note(&rg.recs[p])
		}
		if term {
			note(&rg.recs[end])
		}
	}

	sym := rg.sym
	if sym == "" {
		sym = "(unnamed)"
	}
	g.f("// Region R%d: %s — %d words, from %s.", idx, sym, rg.end, joinShort(rg.units, 4))
	g.f("var sigR%d = [...]uint64{", idx)
	for i := 0; i < len(rg.sig); i += 4 {
		line := ""
		for j := i; j < i+4 && j < len(rg.sig); j++ {
			line += fmt.Sprintf("%#016x, ", rg.sig[j])
		}
		g.f("%s", line)
	}
	g.f("}")
	g.f("")
	g.f("func bindR%d(base uint32) blockFn {", idx)
	g.f("return func(c *CPU, st *cst) int {")
	g.f("r := st.r")
	g.f("data := st.data")
	g.f("cycles, instret := st.cycles, st.instret")
	g.f("var a, v, bpc uint32")
	g.f("var ok bool")
	g.f("_, _, _, _, _ = r, data, a, v, ok")
	{
		var lhs, rhs string
		for i := 1; i < 16; i++ {
			if g.loc[i] {
				if lhs != "" {
					lhs += ", "
					rhs += ", "
				}
				lhs += fmt.Sprintf("r%d", i)
				rhs += fmt.Sprintf("r[%d]", i)
			}
		}
		if lhs != "" {
			g.f("%s := %s", lhs, rhs)
		}
	}
	g.f("switch st.pc - base {")
	for _, l := range leaderOffs {
		g.f("case %d:", l)
		g.f("goto L%d", l)
	}
	g.f("default:")
	g.f("return stNoEntry")
	g.f("}")

	for _, h := range sortedU32(g.heads) {
		if !reach[h] {
			continue
		}
		if used[h] {
			g.f("L%d:", h)
		}
		if g.checked[h] {
			g.f("if st.stop-cycles <= %d {", g.headWorst(h))
			g.f("bpc = %d", h)
			g.f("goto budgetOut")
			g.f("}")
		}
		end, term := g.blockEnd(h)
		var cp, np uint32
		for p := h; p < end; p++ {
			d := &rg.recs[p]
			g.plainRec(d, p, cp, np)
			cp += plainCost(d.op)
			np++
		}
		if term {
			g.termRec(&rg.recs[end], end, cp, np)
		} else if end < rg.end {
			// Falls through into the next head, which re-checks budget.
			g.commit(cp, np)
		} else {
			// Region end without terminator: exit to the next slot.
			g.exit(rg.end, cp, np, "stOK")
		}
	}

	// Shared exit tails: every path out of the region funnels through one
	// of these, so the register write-back is emitted once per region
	// instead of once per exit site.
	g.f("budgetOut:")
	g.wb()
	g.f("st.pc = base + bpc")
	g.f("st.cycles, st.instret = cycles, instret")
	g.f("return stBudget")
	if g.useErr {
		g.f("errOut:")
		g.wb()
		g.f("return stErr")
	}
	if g.useOK {
		g.f("okOut:")
		g.wb()
		g.f("st.cycles, st.instret = cycles, instret")
		g.f("return stOK")
	}
	g.f("}")
	g.f("}")
	g.f("")
}

func mapKeysSet(m map[uint32]map[uint64]bool) map[uint32]bool {
	out := make(map[uint32]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func joinShort(names []string, max int) string {
	if len(names) <= max {
		s := ""
		for i, n := range names {
			if i > 0 {
				s += ", "
			}
			s += n
		}
		return s
	}
	return fmt.Sprintf("%s and %d more", joinShort(names[:max], max), len(names)-max)
}

func generateKernelSource(t testing.TB) []byte {
	units := kernelGenUnits(t)
	regions := mergeRegions(units)

	var buf bytes.Buffer
	buf.WriteString("// Code generated by kernelgen_test.go (go test ./internal/sabre/ -run TestGenerateKernels -update-kernels); DO NOT EDIT.\n")
	buf.WriteString("//\n")
	fmt.Fprintf(&buf, "// Region kernels for the compiled engine: %d distinct regions across %d programs.\n", len(regions), len(units))
	buf.WriteString("// See kernelgen_test.go for the emission rules and block.go for the matching model.\n\n")
	buf.WriteString("package sabre\n\n")

	for i, rg := range regions {
		emitRegion(&buf, i, rg)
	}

	buf.WriteString("func init() {\n")
	for i, rg := range regions {
		for _, off := range sortedU32(mapKeysSet(rg.leaders)) {
			keys := make([]uint64, 0, len(rg.leaders[off]))
			for k := range rg.leaders[off] {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			worst := (&regionEmit{rg: rg, heads: regionHeads(rg)}).headWorst(off)
			for _, k := range keys {
				fmt.Fprintf(&buf, "\tregisterKernel(%#016x, kernelEntry{backOff: %d, worst: %d, sig: sigR%d[:], bind: bindR%d, kind: blockRegion})\n",
					k, off, worst, i, i)
			}
		}
	}
	buf.WriteString("}\n")

	src, err := format.Source(buf.Bytes())
	if err != nil {
		t.Fatalf("generated source does not parse: %v", err)
	}
	return src
}

// regionHeads recomputes the head set (shared by emission and the
// registration worst bounds, which must agree with the emitted checks).
func regionHeads(rg *genRegion) map[uint32]bool {
	heads := map[uint32]bool{0: true}
	for l := range rg.leaders {
		heads[l] = true
	}
	for t := range rg.btargets {
		heads[t] = true
	}
	for p, d := range rg.recs {
		if isTermOp(d.op) && uint32(p)+1 < rg.end {
			heads[uint32(p)+1] = true
		}
	}
	return heads
}

// TestGenerateKernels regenerates kernels_gen.go in memory and fails if
// the committed file is stale; with -update-kernels it rewrites it.
func TestGenerateKernels(t *testing.T) {
	src := generateKernelSource(t)
	if *updateKernels {
		if err := os.WriteFile("kernels_gen.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("kernels_gen.go rewritten: %d bytes", len(src))
		return
	}
	disk, err := os.ReadFile("kernels_gen.go")
	if err != nil {
		t.Fatalf("kernels_gen.go unreadable — regenerate with `go test ./internal/sabre/ -run TestGenerateKernels -update-kernels`: %v", err)
	}
	if !bytes.Equal(disk, src) {
		t.Fatal("kernels_gen.go is stale — regenerate with `go test ./internal/sabre/ -run TestGenerateKernels -update-kernels`")
	}
}
