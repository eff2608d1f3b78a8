package affine

import (
	"math"

	"boresight/internal/fixed"
	"boresight/internal/hcsim"
	"boresight/internal/rc200"
	"boresight/internal/video"
)

// Pipeline is the paper's Figure 5 RotateCoordinates datapath hosted on
// the hcsim clock: a five-stage pipeline that, once loaded, produces one
// output pixel per clock cycle. It raster-scans the output frame,
// inverse-maps each coordinate through the fixed-point rotation, reads
// the source pixel from a ZBT SRAM framebuffer (1-cycle latency) and
// pushes it to the display sink.
//
// The address generator is *stepped*: because the inverse map is
// affine, each rotation product advances by a constant per pixel, so S1
// updates four extended-precision accumulators with adds (two per
// pixel, four at a row wrap) instead of multiplying per pixel — the
// real-FPGA arrangement that frees the DSP blocks for the correlator.
// S2 renormalises the accumulators (fixed.RoundShift64, the identical
// rounding to the four fixed.Muls it replaces), keeping the frame
// bit-identical to the per-pixel RotateCoord datapath.
//
// Stages (one clock each):
//
//	S0  raster coordinate generation; frame-atomic control latch
//	S1  stepping accumulators advance (delta adds)           (steps 1–2)
//	S2  renormalisation shifts (was: four multiplies)        (step 3)
//	S3  sums, fixed→int, centre restore; SRAM read issued    (steps 4–5)
//	S4  SRAM data returns; pixel pushed to the display
//
// The control inputs (LUT index and pixel translation) mirror the
// twelve memory-mapped registers the Sabre writes into the
// SabreControlRun peripheral. The whole control word — rotation *and*
// translation — is latched into frame registers when pixel 0 issues:
// the stepping accumulators are seeded from the rotation at that
// moment, and tx/ty ride the stage registers beside the products, so a
// mid-frame SetControl cannot tear a frame (it takes effect at the
// next Start). The previous per-stage reads skewed tx/ty (read at S3)
// against thetaIdx (read at S1) by two pixels on a mid-frame write.
//
// The pipeline's registers form one bank: q holds the values latched at
// the last clock edge and d the values the next edge latches. Eval,
// SetControl and Start read q and write d; one commit hook copies d to q
// at the edge. A register nobody writes in a cycle holds its value
// because d persists, and a control write landing after Eval in the same
// cycle (SetControl, Start) wins, as in Handel-C.
type Pipeline struct {
	lut  *fixed.Trig
	src  *rc200.SRAM
	dst  *rc200.Display
	w, h int

	q, d pipeRegs

	framesDone uint64
	blackOut   uint64 // pixels whose source fell outside the frame
}

// pipeRegs is the pipeline's register bank.
type pipeRegs struct {
	// Control registers (written by the processor side).
	thetaIdx, tx, ty int

	// S0 state: raster position of the next coordinate to issue.
	x, y    int
	running bool

	// Frame-latched control and the stepping accumulators.
	frame frameCtl
	acc   stepAcc

	// Stage registers.
	s1 s1Regs
	s2 s2Regs
	s3 s3Regs
}

// frameCtl is the control word latched once per frame at pixel 0: the
// LUT outputs for the frame's rotation, the translation, and the
// row-start products the x accumulators reload at each row wrap.
type frameCtl struct {
	sin, cos     int32
	tx, ty       int
	rowP3, rowP4 int64 // (0−cx)·cos, (0−cx)·sin
}

// stepAcc holds the four extended-precision rotation products for the
// next raster position:
//
//	p3 = (x−cx)·cos   p4 = (x−cx)·sin
//	q2 = (y−cy)·(−sin)   q5 = (y−cy)·cos
//
// carried exactly in int64 so the per-pixel adds are exact and the S2
// renormalisation reproduces the reference multiplies bit for bit.
type stepAcc struct {
	p3, p4, q2, q5 int64
}

type s1Regs struct {
	valid          bool
	x, y           int
	p2, p3, p4, p5 int64 // extended products for this pixel
	tx, ty         int   // frame-latched translation, riding along
}

type s2Regs struct {
	valid          bool
	x, y           int
	t2, t3, t4, t5 int32
	tx, ty         int
}

type s3Regs struct {
	valid   bool
	x, y    int
	inRange bool
}

// NewPipeline builds and registers the pipeline with the simulator.
func NewPipeline(sim *hcsim.Sim, lut *fixed.Trig, src *rc200.SRAM, dst *rc200.Display, w, h int) *Pipeline {
	p := &Pipeline{lut: lut, src: src, dst: dst, w: w, h: h}
	sim.Add(p)
	hcsim.AddCommitHook(sim, func() { p.q = p.d })
	return p
}

// SetSource switches the SRAM bank the pipeline reads — the
// double-buffer swap. Only safe between frames (when Busy is false).
func (p *Pipeline) SetSource(src *rc200.SRAM) { p.src = src }

// SetControl loads the inverse-mapping control registers: the LUT index
// of the rotation and the whole-pixel translation applied to the source
// coordinate. Takes effect at the next clock edge, like a bus write.
func (p *Pipeline) SetControl(thetaIdx, tx, ty int) {
	p.d.thetaIdx, p.d.tx, p.d.ty = thetaIdx, tx, ty
}

// ControlFromParams converts forward correction parameters to the
// pipeline's inverse-mapping control values.
func ControlFromParams(lut *fixed.Trig, prm Params) (thetaIdx, tx, ty int) {
	inv := prm.Invert()
	return lut.Index(inv.Theta), int(math.Round(inv.TX)), int(math.Round(inv.TY))
}

// Start begins one frame (takes effect at the next clock edge).
func (p *Pipeline) Start() {
	p.d.x, p.d.y, p.d.running = 0, 0, true
}

// Busy reports whether a frame is still flowing through the pipeline.
func (p *Pipeline) Busy() bool {
	return p.q.running || p.q.s1.valid || p.q.s2.valid || p.q.s3.valid
}

// FramesDone returns the number of completed output frames.
func (p *Pipeline) FramesDone() uint64 { return p.framesDone }

// BlackPixels returns how many output pixels had out-of-range sources.
func (p *Pipeline) BlackPixels() uint64 { return p.blackOut }

// Eval advances every stage one clock. Stage registers are written in
// place; an invalid stage's other fields are stale and never read. A
// drained pipeline has nothing to advance: every stage already holds a
// bubble, so Eval returns at once.
func (p *Pipeline) Eval() {
	if !p.Busy() {
		return
	}
	q, d := &p.q, &p.d
	cx, cy := p.w/2, p.h/2

	// S4: the SRAM data addressed by S3 last cycle is valid now.
	if s3 := &q.s3; s3.valid {
		var pix video.Pixel
		if s3.inRange {
			pix = video.Pixel(p.src.Data())
		} else {
			p.blackOut++
		}
		p.dst.Push(s3.x, s3.y, pix)
		if s3.y == p.h-1 && s3.x == p.w-1 {
			p.framesDone++
		}
	}

	// S3: sums, fixed→int, centre restore; issue the SRAM read. The
	// translation comes from the stage registers (latched with the
	// rotation at frame start), not from a live control read.
	d.s3.valid = q.s2.valid
	if s2 := &q.s2; s2.valid {
		sx := fixed.ToInt(fixed.AddSat(s2.t2, s2.t3), fixed.CoordFrac) + cx + s2.tx
		sy := fixed.ToInt(fixed.AddSat(s2.t4, s2.t5), fixed.CoordFrac) + cy + s2.ty
		inRange := sx >= 0 && sx < p.w && sy >= 0 && sy < p.h
		if inRange {
			p.src.RequestRead(sy*p.w + sx)
		}
		d.s3.x, d.s3.y, d.s3.inRange = s2.x, s2.y, inRange
	}

	// S2: renormalise the stepped products — the same rounding the four
	// multiplies applied, so the coordinates are unchanged bit for bit.
	d.s2.valid = q.s1.valid
	if s1 := &q.s1; s1.valid {
		s2 := &d.s2
		s2.x, s2.y = s1.x, s1.y
		s2.t2 = fixed.RoundShift64(s1.p2, fixed.StepShift)
		s2.t3 = fixed.RoundShift64(s1.p3, fixed.StepShift)
		s2.t4 = fixed.RoundShift64(s1.p4, fixed.StepShift)
		s2.t5 = fixed.RoundShift64(s1.p5, fixed.StepShift)
		s2.tx, s2.ty = s1.tx, s1.ty
	}

	// S0+S1: raster generation and the stepping address generator. At
	// pixel 0 the control word is latched frame-atomically and the
	// accumulators are seeded from it; afterwards they advance by adds
	// only (two per pixel, reload + two at a row wrap).
	d.s1.valid = q.running
	if !q.running {
		return
	}
	x, y := q.x, q.y
	fc, a := &q.frame, q.acc
	if x == 0 && y == 0 {
		sin, cos := p.lut.SinIdx(q.thetaIdx), p.lut.CosIdx(q.thetaIdx)
		d.frame = frameCtl{
			sin: sin, cos: cos,
			tx: q.tx, ty: q.ty,
			rowP3: int64(-cx) * int64(cos),
			rowP4: int64(-cx) * int64(sin),
		}
		fc = &d.frame
		a = stepAcc{
			p3: fc.rowP3,
			p4: fc.rowP4,
			q2: int64(-cy) * int64(-sin),
			q5: int64(-cy) * int64(cos),
		}
	}
	s1 := &d.s1
	s1.x, s1.y = x, y
	s1.p2, s1.p3, s1.p4, s1.p5 = a.q2, a.p3, a.p4, a.q5
	s1.tx, s1.ty = fc.tx, fc.ty
	if x+1 < p.w {
		a.p3 += int64(fc.cos)
		a.p4 += int64(fc.sin)
		d.x = x + 1
	} else {
		a.p3, a.p4 = fc.rowP3, fc.rowP4
		a.q2 -= int64(fc.sin)
		a.q5 += int64(fc.cos)
		d.x, d.y = 0, y+1
		if y+1 == p.h {
			d.running, d.y = false, 0
		}
	}
	d.acc = a
}
