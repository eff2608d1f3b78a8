// Command perfbench is the repository's end-to-end benchmark: one
// process runs one workload against the in-repo serving, fusion and
// FPGA layers, checks that every output is correct, and prints every
// metric by name with its unit. The last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload serve-short --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a
// separate traced run records spans around every call the benchmark
// makes into a layer and prints the per-layer set. README.md describes
// the workloads and which layer metric should move which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// processStart anchors the first set-up measurement as early as Go
// lets a program observe its own start.
var processStart = time.Now()

// heldOutSeed is reserved for confirming claims: tune on other seeds,
// then run this one once (choosing-metrics §6.3).
const heldOutSeed = 7919

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for spans and the count ledger")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.scale = 1

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// scale multiplies the benchmark's fixed work sizes: 1 from the
	// command line, smaller in the smoke test and the reference runs.
	scale float64
}

// scaled multiplies a work size by the scale factor, never below lo.
func (c config) scaled(n, lo int) int {
	v := int(float64(n) * c.scale)
	if v < lo {
		v = lo
	}
	return v
}

// report is the benchmark's final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload invocation end to end.
func run(cfg config) (*report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %g trace %v GOMAXPROCS %d (held-out seed %d)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), heldOutSeed)

	g := &gates{}
	var m metrics
	var err error
	if cfg.trace {
		m, err = tracedRun(cfg, wl, g)
	} else {
		m, err = timedRun(cfg, wl, g)
	}
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := make(map[string]metric, len(want))
	for _, d := range want {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	attempted, failed := g.counts()
	g.report(os.Stderr)
	return &report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   out,
	}, nil
}
