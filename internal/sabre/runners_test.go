package sabre

import (
	"math"
	"sync"
	"testing"

	"boresight/internal/fxcore"
	"boresight/internal/geom"
)

// Tests of the default engine and the package's runners: the zero-value
// CPU runs compiled, each runner assembles its program once per process
// (so a call allocates a small constant), and concurrent callers share
// the cached programs without disturbing each other's results.

func runnerKalmanZ(n int) []float32 {
	z := make([]float32, n)
	for i := range z {
		z[i] = 4 + float32(math.Sin(float64(i)))*0.25
	}
	return z
}

var runnerFxCfg = fxcore.Config{MeasNoise: 0.05, InitAngleSigma: 0.1, AngleWalk: 1e-3}

func runnerFxInputs(n int) []FxBoresightInput {
	return buildFxInputs(n, geom.EulerDeg(1, -2, 0.5), 7)
}

// TestDefaultEngineIsCompiled runs the Kalman, boresight and a batch
// program on a CPU whose Engine was never set, requires that the
// compiled engine (and not the fused one) executed them, and that every
// outcome matches the reference engine bit for bit, cycles included.
func TestDefaultEngineIsCompiled(t *testing.T) {
	if New().Engine != EngineCompiled {
		t.Fatalf("New().Engine = %v, want compiled", New().Engine)
	}
	kal, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	fxb, err := FxBoresightProgram()
	if err != nil {
		t.Fatal(err)
	}
	add, err := BatchProgram("f32_add")
	if err != nil {
		t.Fatal(err)
	}
	z := runnerKalmanZ(12)
	fxIn := runnerFxInputs(6)
	pairs := [][2]uint32{{0x3F800000, 0x40000000}, {0xC0490FDB, 0x3E800000}, {0x7F7FFFFF, 0x7F7FFFFF}}
	cases := []struct {
		name   string
		words  []uint32
		budget uint64
		setup  func(*CPU)
	}{
		{"kalman", kal.Words, KalmanRunBudget(len(z)), func(c *CPU) { SetKalmanInputs(c, 1e-4, 0.04, 1, 0, z) }},
		{"boresight", fxb.Words, FxBoresightRunBudget(len(fxIn)), func(c *CPU) { LoadFxBoresightInputs(c, runnerFxCfg, 0.01, fxIn) }},
		{"batch f32_add", add.Words, 100000, func(c *CPU) {
			c.StoreWord(batchCountAddr, uint32(len(pairs)))
			for i, p := range pairs {
				c.StoreWord(uint32(batchInAddr+8*i), p[0])
				c.StoreWord(uint32(batchInAddr+8*i+4), p[1])
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := runOneEngine(EngineRef, tc.words, tc.budget, tc.setup)
			if err != nil {
				t.Fatal(err)
			}
			c := New()
			if err := c.LoadProgram(tc.words); err != nil {
				t.Fatal(err)
			}
			tc.setup(c)
			ran, err := c.Run(tc.budget)
			if err != nil || !c.Halted {
				t.Fatalf("default-engine run: halted=%v err=%v", c.Halted, err)
			}
			if !c.blocksValid || c.decValid {
				t.Fatalf("default engine did not run compiled (translated=%v, predecoded=%v)", c.blocksValid, c.decValid)
			}
			got := &engineOutcome{
				ran: ran, pc: c.PC, regs: c.R, cycles: c.Cycles, instret: c.Instret,
				halted: c.Halted, fault: c.FaultAddr, data: append([]byte(nil), c.Data...),
			}
			if d := diffOutcomes(ref, got); d != "" {
				t.Fatalf("default engine vs reference: %s", d)
			}
		})
	}
}

// TestRunnerAllocs pins the allocation cost of one runner call. With
// the program assembled once per process, a call allocates the CPU and
// its memories, the translation (or predecode) tables, one binding or
// region per routine, the statistics collector and the result — a small
// constant (today 4-8, and 28 for the batch program's routine kernels)
// independent of the measurement count. Assembly alone costs thousands.
func TestRunnerAllocs(t *testing.T) {
	const bound = 32
	z := runnerKalmanZ(8)
	fxIn := runnerFxInputs(4)
	pairs := [][2]uint32{{0x3F800000, 0x40000000}, {0x40490FDB, 0xBF000000}}
	for _, eng := range []Engine{EngineCompiled, EngineFast, EngineRef} {
		runs := []struct {
			name string
			fn   func() error
		}{
			{"RunKalmanEngine", func() error { _, err := RunKalmanEngine(eng, 1e-4, 0.04, 1, 0, z); return err }},
			{"RunFxBoresightEngine", func() error { _, err := RunFxBoresightEngine(eng, runnerFxCfg, 0.01, fxIn); return err }},
			{"RunBatchEngine", func() error { _, _, err := RunBatchEngine(eng, "f32_add", pairs); return err }},
		}
		for _, r := range runs {
			if err := r.fn(); err != nil { // warm the program cache
				t.Fatalf("%s(%v): %v", r.name, eng, err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := r.fn(); err != nil {
					panic(err)
				}
			})
			if allocs > bound {
				t.Errorf("%s(%v): %v allocs/call, want <= %d", r.name, eng, allocs, bound)
			}
		}
	}
}

// TestRunnersConcurrent calls the default-engine runners from several
// goroutines at once — the shape of two benchmark lanes sharing the
// process-wide program cache — and requires every result to equal the
// reference engine's bit for bit, cycle counts included. Run it under
// -race to check the cache and the shared kernel registry.
func TestRunnersConcurrent(t *testing.T) {
	z := runnerKalmanZ(10)
	fxIn := runnerFxInputs(5)
	kalRef, err := RunKalmanEngine(EngineRef, 1e-4, 0.04, 1, 0, z)
	if err != nil {
		t.Fatal(err)
	}
	fxRef, err := RunFxBoresightEngine(EngineRef, runnerFxCfg, 0.01, fxIn)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 3
	errs := make(chan string, workers*rounds*2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				kr, err := RunKalman(1e-4, 0.04, 1, 0, z)
				switch {
				case err != nil:
					errs <- "Kalman: " + err.Error()
				case kr.TotalCycles != kalRef.TotalCycles || kr.Instructions != kalRef.Instructions ||
					math.Float32bits(kr.FinalP) != math.Float32bits(kalRef.FinalP):
					errs <- "Kalman counters or covariance differ from the reference engine"
				default:
					for j := range kr.Estimates {
						if math.Float32bits(kr.Estimates[j]) != math.Float32bits(kalRef.Estimates[j]) {
							errs <- "Kalman estimate differs from the reference engine"
							break
						}
					}
				}
				fr, err := RunFxBoresight(runnerFxCfg, 0.01, fxIn)
				switch {
				case err != nil:
					errs <- "boresight: " + err.Error()
				case fr.TotalCycles != fxRef.TotalCycles || fr.Instructions != fxRef.Instructions:
					errs <- "boresight counters differ from the reference engine"
				default:
					for j := range fr.States {
						if fr.States[j] != fxRef.States[j] {
							errs <- "boresight state differs from the reference engine"
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
