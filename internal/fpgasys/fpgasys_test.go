package fpgasys

import (
	"testing"

	"boresight/internal/affine"
	"boresight/internal/fixed"
	"boresight/internal/geom"
	"boresight/internal/link"
	"boresight/internal/video"
)

func testConfig(w, h int) Config {
	scene := video.Checkerboard(w, h, 8)
	return Config{
		W: w, H: h,
		Source: func(int) *video.Frame { return scene },
	}
}

func accPacketBytes(t1x, t1y, t2 uint16) []byte {
	return link.EncodeACC(link.ACCPacket{T1X: t1x, T1Y: t1y, T2: t2})
}

func TestSystemBoots(t *testing.T) {
	s, err := New(testConfig(32, 24))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	if s.CPUInstructions() == 0 {
		t.Fatal("control program did not execute")
	}
	if s.VideoIn.FramesCaptured() == 0 {
		t.Fatal("video capture never completed a frame")
	}
	// No solution yet: WaitForSabre holds output.
	if s.OutputFrames() != 0 {
		t.Fatal("output started before a valid solution")
	}
}

func TestSerialBytesArriveAtLineRate(t *testing.T) {
	s, err := New(testConfig(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	pkt := accPacketBytes(100, 200, 4096)
	s.SendACC(pkt)
	// At 57600 baud one byte needs 10/57600 s = ~4340 cycles at 25 MHz;
	// after 2000 cycles nothing can have arrived and been counted.
	if err := s.Run(2000); err != nil {
		t.Fatal(err)
	}
	if got := s.CPU.LoadWord(0x3C); got != 0 {
		t.Fatalf("packet parsed impossibly early (count %d)", got)
	}
	// After 8 byte-times plus processing slack the packet is in.
	if err := s.Run(8*4340 + 20000); err != nil {
		t.Fatal(err)
	}
	if got := s.CPU.LoadWord(0x3C); got != 1 {
		t.Fatalf("ACC packet count = %d", got)
	}
	if got := s.CPU.LoadWord(0x24); got != 100 {
		t.Fatalf("parsed t1x = %d", got)
	}
}

func TestEndToEndCorrectedFrame(t *testing.T) {
	w, h := 32, 24
	cfg := testConfig(w, h)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The "Kalman task" deposits a solution: rotate via LUT index 32
	// (11.25°), shift (2, -1).
	idx, tx, ty := int32(32), int32(2), int32(-1)
	s.DepositSolution(6554, idx, tx, ty) // 0.1 rad in S16.16

	// Run long enough for: solution load (+ctl write), a capture frame
	// (w*h cycles), swap, and one output frame.
	if err := s.Run(30000 + 4*w*h); err != nil {
		t.Fatal(err)
	}
	if !s.Ctl.Valid() {
		t.Fatal("control block never validated")
	}
	if s.OutputFrames() == 0 {
		t.Fatal("no corrected frame produced")
	}

	// The displayed frame must equal the pure fixed-point transform
	// with the same control values applied to the source.
	lut := fixed.NewTrig(1024, fixed.TrigFrac)
	ft := affine.NewFixedTransformer(lut)
	src := cfg.Source(0)
	want := video.NewFrame(w, h)
	cx, cy := w/2, h/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx, sy := ft.RotateCoord(int(idx), x, y, cx, cy, int(tx), int(ty))
			want.Set(x, y, src.At(sx, sy))
		}
	}
	if !s.Display.Frame.Equal(want) {
		t.Fatal("co-simulated output differs from reference transform")
	}
}

func TestSolutionUpdateMidStream(t *testing.T) {
	w, h := 16, 16
	s, err := New(testConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	s.DepositSolution(0, 0, 0, 0) // identity
	if err := s.Run(20000 + 4*w*h); err != nil {
		t.Fatal(err)
	}
	first := s.Display.Frame.Clone()
	firstFrames := s.OutputFrames()
	if firstFrames == 0 {
		t.Fatal("no identity frame")
	}
	// New solution: 90° rotation (LUT index 256).
	s.DepositSolution(0, 256, 0, 0)
	if err := s.Run(30000 + 6*w*h); err != nil {
		t.Fatal(err)
	}
	if s.OutputFrames() <= firstFrames {
		t.Fatal("no further frames after solution update")
	}
	if s.Display.Frame.Equal(first) {
		t.Fatal("output unchanged after new solution")
	}
	if s.Ctl.Seq() != 2 {
		t.Fatalf("control seq = %d, want 2", s.Ctl.Seq())
	}
}

func TestContinuousFrameRate(t *testing.T) {
	w, h := 32, 24
	s, err := New(testConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	s.DepositSolution(0, 0, 0, 0)
	// Let it run for ~20 frame times; the output rate should approach
	// one output frame per capture frame (capture dominates at 1
	// pixel/cycle each).
	cycles := 20 * w * h * 2
	if err := s.Run(20000 + cycles); err != nil {
		t.Fatal(err)
	}
	if s.OutputFrames() < 5 {
		t.Fatalf("only %d output frames in %d cycles", s.OutputFrames(), cycles)
	}
	if s.Buffers.Swaps() < s.OutputFrames() {
		t.Fatalf("swaps %d < output frames %d", s.Buffers.Swaps(), s.OutputFrames())
	}
}

func TestIdleLineWaitsAFullByteTime(t *testing.T) {
	s, err := New(testConfig(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Leave the line idle for far longer than one byte-time, then send:
	// the byte still needs its 10 bit-times on the wire.
	if err := s.Run(100000); err != nil {
		t.Fatal(err)
	}
	baud := 57600.0
	byteTime := int(10 / baud * ClockHz)
	s.SendACC([]byte{0xAA, 0x55})
	if err := s.Run(byteTime - 1); err != nil {
		t.Fatal(err)
	}
	if got := len(s.accLine.pending); got != 2 {
		t.Fatalf("%d of 2 bytes left after %d idle cycles, want 2", got, byteTime-1)
	}
	if err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := len(s.accLine.pending); got != 1 {
		t.Fatalf("%d of 2 bytes left after one byte-time, want 1", got)
	}
	// The second byte follows back to back, one byte-time later.
	if err := s.Run(byteTime); err != nil {
		t.Fatal(err)
	}
	if got := len(s.accLine.pending); got != 0 {
		t.Fatalf("%d of 2 bytes left after two byte-times, want 0", got)
	}
}

func TestDMUPacketThroughSystem(t *testing.T) {
	s, err := New(testConfig(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	frame := link.EncodeDMUAccels(3, geom.Vec3{1.0, -2.0, -9.8})
	s.SendDMU(link.BridgeEncode(frame))
	// 15 bytes at ~4340 cycles each plus slack.
	if err := s.Run(15*4340 + 40000); err != nil {
		t.Fatal(err)
	}
	if got := s.CPU.LoadWord(0x40); got != 1 {
		t.Fatalf("DMU frame count = %d", got)
	}
	ax := int32(s.CPU.LoadWord(0x30))
	if ax != 1000 { // 1.0 m/s² at 1 mm/s² LSB
		t.Fatalf("parsed ax = %d", ax)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestSystemRunAllocFree pins the steady state of the co-simulation to
// zero allocations: a solution deposited, the serial bytes parsed and
// corrected frames flowing through both banks.
func TestSystemRunAllocFree(t *testing.T) {
	s := epochSystem(t)
	if err := s.Run(epochCycles / 4); err != nil {
		t.Fatal(err)
	}
	frames := s.OutputFrames()
	if frames == 0 {
		t.Fatal("no corrected frame before the steady state")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := s.Run(10000); err != nil {
			t.Fatal(err)
		}
	})
	if s.OutputFrames() == frames {
		t.Fatal("frames stopped flowing")
	}
	if allocs != 0 {
		t.Fatalf("System.Run allocates %.1f times per 10k cycles, want 0", allocs)
	}
}

func BenchmarkSystemCycle(b *testing.B) {
	s, err := New(testConfig(32, 24))
	if err != nil {
		b.Fatal(err)
	}
	s.DepositSolution(0, 16, 1, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemEpoch runs one 250k-cycle epoch of the whole chip per
// op — the end-to-end benchmark's co-simulation shape, construction
// included — and reports simulated Mcycle/s.
func BenchmarkSystemEpoch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := epochSystem(b)
		if err := s.Run(epochCycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(epochCycles)/b.Elapsed().Seconds()/1e6, "Mcycle/s")
}
