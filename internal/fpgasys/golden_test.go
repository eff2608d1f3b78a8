package fpgasys

import (
	"reflect"
	"testing"

	"boresight/internal/affine"
	"boresight/internal/fixed"
	"boresight/internal/geom"
	"boresight/internal/link"
	"boresight/internal/video"
)

// epochCycles is one 100 Hz sensor period of chip time.
const epochCycles = int(ClockHz / 100)

// epochSystem builds the co-simulation shape the end-to-end benchmark
// runs: a 160×120 RoadScene seen through a (3°, 1°, −1°) misalignment,
// the matching solution deposited, and one DMU bridge frame plus one
// ACC packet queued on the serial lines before the first cycle.
func epochSystem(tb testing.TB) *System {
	tb.Helper()
	const w, h, focal = 160, 120, 200
	mis := geom.EulerDeg(3, 1, -1)
	corr := affine.FromMisalignment(mis, focal)
	src := affine.TransformFloat(video.RoadScene{W: w, H: h}.Render(), corr.Invert(), true)
	s, err := New(Config{W: w, H: h, Source: func(int) *video.Frame { return src }})
	if err != nil {
		tb.Fatal(err)
	}
	idx, tx, ty := affine.ControlFromParams(fixed.NewTrig(1024, fixed.TrigFrac), corr)
	s.DepositSolution(int32(mis.Roll*65536), int32(idx), int32(tx), int32(ty))
	s.SendDMU(link.BridgeEncode(link.EncodeDMUAccels(0, geom.Vec3{0.5, -0.25, -9.81})))
	s.SendACC(accPacketBytes(17000, 15800, 32768))
	return s
}

// epochGolden is everything one epoch of the whole chip produces that a
// change to the simulation kernel could move.
type epochGolden struct {
	Instret, OutputFrames, Swaps uint64
	CtlSeq                       uint32
	ACCPackets, DMUFrames        uint32
	ACCParsed, DMUParsed         uint64 // cycle at which the control program counted each packet
	DisplayCRC                   uint32
	BlackPixels                  uint64
	RAM1, RAM2                   [2]uint64 // reads, writes
	FrameDone                    []uint64  // cycle at which each output frame completed
}

func runEpochGolden(t *testing.T) epochGolden {
	s := epochSystem(t)
	var g epochGolden
	for i := 0; i < epochCycles; i++ {
		if err := s.Run(1); err != nil {
			t.Fatal(err)
		}
		if n := s.OutputFrames(); n != uint64(len(g.FrameDone)) {
			g.FrameDone = append(g.FrameDone, s.Sim.Cycle())
		}
		if g.ACCParsed == 0 && s.CPU.LoadWord(0x3C) != 0 {
			g.ACCParsed = s.Sim.Cycle()
		}
		if g.DMUParsed == 0 && s.CPU.LoadWord(0x40) != 0 {
			g.DMUParsed = s.Sim.Cycle()
		}
	}
	g.Instret = s.CPUInstructions()
	g.OutputFrames = s.OutputFrames()
	g.Swaps = s.Buffers.Swaps()
	g.CtlSeq = s.Ctl.Seq()
	g.ACCPackets = s.CPU.LoadWord(0x3C)
	g.DMUFrames = s.CPU.LoadWord(0x40)
	g.DisplayCRC = s.Display.Frame.Checksum()
	g.BlackPixels = s.Pipeline.BlackPixels()
	g.RAM1[0], g.RAM1[1] = s.RAM1.Stats()
	g.RAM2[0], g.RAM2[1] = s.RAM2.Stats()
	return g
}

// TestSystemEpochGolden pins one epoch of the whole chip cycle for
// cycle: instruction count, frames, swaps, control sequence, the cycle
// each serial packet was parsed, the displayed frame's CRC, SRAM bus
// traffic and the cycle each output frame completed. The values were recorded before the affine pipeline
// and the SRAM moved from per-field registers to register banks; any
// change to the simulation kernel must leave them exactly in place.
func TestSystemEpochGolden(t *testing.T) {
	want := epochGolden{
		Instret: 163825, OutputFrames: 12, Swaps: 13, CtlSeq: 1,
		ACCPackets: 1, DMUFrames: 1,
		ACCParsed: 34778, DMUParsed: 60930,
		DisplayCRC: 0x455b571b, BlackPixels: 11892,
		RAM1: [2]uint64{109386, 115576},
		RAM2: [2]uint64{109472, 134424},
		FrameDone: []uint64{
			38403, 57607, 76811, 96015, 115219, 134423,
			153627, 172831, 192035, 211239, 230443, 249647,
		},
	}
	if got := runEpochGolden(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch drifted:\n got %+v\nwant %+v", got, want)
	}
}
