// Package rc200 models the Celoxica RC200E board of the paper's Section
// 7 at the level the FPGA design interacts with it: two 2 MiB banks of
// pipelined ZBT SRAM, a video-input stream that captures frames into a
// RAM bank, a video-output sink standing in for the TFT display, and
// the double-buffer controller that ping-pongs the two banks between
// capture and display (Section 9's scheme).
//
// Everything is clocked by an hcsim.Sim; cycle counts reported by the
// experiments come straight from this model.
package rc200

import (
	"fmt"

	"boresight/internal/hcsim"
	"boresight/internal/video"
)

// SRAMWords is the capacity of one ZBT bank in 32-bit words (2 MiB).
const SRAMWords = 512 * 1024

// SRAM is one bank of pipelined ZBT ("zero bus turnaround") SRAM: the
// address presented in cycle N returns data readable in cycle N+1, and
// reads and writes may be issued back to back with no turnaround
// penalty — the property the paper's double-buffered video path relies
// on.
type SRAM struct {
	words []uint32
	// Read-address register: rdQ was latched at the last clock edge,
	// rdD is the address presented this cycle.
	rdQ, rdD int
	pendW    bool
	pendWA   int
	pendWD   uint32
	reads    uint64
	writes   uint64
}

// NewSRAM creates a bank attached to the simulator's clock.
func NewSRAM(s *hcsim.Sim) *SRAM {
	m := &SRAM{words: make([]uint32, SRAMWords)}
	hcsim.AddCommitHook(s, m.commit)
	return m
}

// RequestRead presents addr on the read port this cycle; Data returns
// the word next cycle.
func (m *SRAM) RequestRead(addr int) {
	m.rdD = addr & (SRAMWords - 1)
	m.reads++
}

// Data returns the word addressed on the previous cycle.
func (m *SRAM) Data() uint32 { return m.words[m.rdQ] }

// Write schedules a word write that lands at this cycle's clock edge.
func (m *SRAM) Write(addr int, v uint32) {
	m.pendW = true
	m.pendWA = addr & (SRAMWords - 1)
	m.pendWD = v
	m.writes++
}

// commit latches the read address and lands a pending write at the
// clock edge.
func (m *SRAM) commit() {
	m.rdQ = m.rdD
	if m.pendW {
		m.words[m.pendWA] = m.pendWD
		m.pendW = false
	}
}

// Peek reads a word directly (test/debug access, not a bus cycle).
func (m *SRAM) Peek(addr int) uint32 { return m.words[addr&(SRAMWords-1)] }

// Poke writes a word directly (test/debug access, not a bus cycle).
func (m *SRAM) Poke(addr int, v uint32) { m.words[addr&(SRAMWords-1)] = v }

// Stats returns the bus transaction counters.
func (m *SRAM) Stats() (reads, writes uint64) { return m.reads, m.writes }

// LoadFrame copies a frame into the bank row-major from word 0 — the
// layout VideoIn produces and the affine pipeline consumes.
func (m *SRAM) LoadFrame(f *video.Frame) {
	if f.W*f.H > SRAMWords {
		panic(fmt.Sprintf("rc200: frame %dx%d exceeds SRAM", f.W, f.H))
	}
	for i, p := range f.Pix {
		m.words[i] = uint32(p)
	}
}

// ReadFrame copies a w×h frame out of the bank (test/debug).
func (m *SRAM) ReadFrame(w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	for i := range f.Pix {
		f.Pix[i] = video.Pixel(m.words[i])
	}
	return f
}

// VideoIn captures a source frame into an SRAM bank at one pixel per
// clock, the paper's VideoInProcess. Source frames are supplied by a
// generator function (the camera); capture restarts automatically,
// writing into whichever bank the double-buffer controller designates.
type VideoIn struct {
	W, H     int
	source   func(frameNo int) *video.Frame
	target   *SRAM
	cur      *video.Frame
	x, y     int
	frameNo  int
	enabled  bool
	captured uint64
}

// NewVideoIn creates the capture unit; source is invoked once per frame.
func NewVideoIn(s *hcsim.Sim, w, h int, source func(frameNo int) *video.Frame) *VideoIn {
	v := &VideoIn{W: w, H: h, source: source}
	s.Add(v)
	return v
}

// Enable starts capture into the given bank.
func (v *VideoIn) Enable(target *SRAM) {
	v.target = target
	v.enabled = true
}

// Retarget switches the capture bank (at a frame boundary, the
// double-buffer swap).
func (v *VideoIn) Retarget(target *SRAM) { v.target = target }

// FramesCaptured returns the number of completed capture frames.
func (v *VideoIn) FramesCaptured() uint64 { return v.captured }

// Eval advances one pixel per clock.
func (v *VideoIn) Eval() {
	if !v.enabled || v.target == nil {
		return
	}
	if v.cur == nil {
		v.cur = v.source(v.frameNo)
		if v.cur.W != v.W || v.cur.H != v.H {
			panic(fmt.Sprintf("rc200: source frame %dx%d, want %dx%d", v.cur.W, v.cur.H, v.W, v.H))
		}
		v.x, v.y = 0, 0
	}
	v.target.Write(v.y*v.W+v.x, uint32(v.cur.At(v.x, v.y)))
	v.x++
	if v.x == v.W {
		v.x, v.y = 0, v.y+1
		if v.y == v.H {
			v.cur = nil
			v.frameNo++
			v.captured++
		}
	}
}

// Display is the video-output sink (TFT stand-in): it accumulates
// pixels pushed by the output pipeline into a visible frame and counts
// completed frames.
type Display struct {
	W, H    int
	Frame   *video.Frame
	pixels  uint64
	frames  uint64
	written int
}

// NewDisplay creates a display sink.
func NewDisplay(w, h int) *Display {
	return &Display{W: w, H: h, Frame: video.NewFrame(w, h)}
}

// Push writes one output pixel. Completing W×H pixels counts a frame.
func (d *Display) Push(x, y int, p video.Pixel) {
	d.Frame.Set(x, y, p)
	d.pixels++
	d.written++
	if d.written >= d.W*d.H {
		d.written = 0
		d.frames++
	}
}

// Frames returns the number of completed output frames.
func (d *Display) Frames() uint64 { return d.frames }

// Pixels returns the total pixels pushed.
func (d *Display) Pixels() uint64 { return d.pixels }

// DoubleBuffer is the two-bank ping-pong controller of Section 9: one
// bank receives the incoming video while the other feeds the transform;
// Swap exchanges the roles at a frame boundary.
type DoubleBuffer struct {
	banks [2]*SRAM
	front int // index of the bank being displayed/read
	swaps uint64
}

// NewDoubleBuffer wires the two banks; bank 0 starts as the read
// (front) buffer.
func NewDoubleBuffer(a, b *SRAM) *DoubleBuffer {
	return &DoubleBuffer{banks: [2]*SRAM{a, b}}
}

// Front returns the bank currently being read by the display path.
func (db *DoubleBuffer) Front() *SRAM { return db.banks[db.front] }

// Back returns the bank currently being written by capture.
func (db *DoubleBuffer) Back() *SRAM { return db.banks[1-db.front] }

// Swap exchanges front and back.
func (db *DoubleBuffer) Swap() {
	db.front = 1 - db.front
	db.swaps++
}

// Swaps returns the number of swaps performed.
func (db *DoubleBuffer) Swaps() uint64 { return db.swaps }
