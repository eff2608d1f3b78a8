package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The exact-count ledger. Every count a run's seed fixes is printed,
// and a count that differs between two executions of one binary on one
// seed fails the run: within a process the workload's fixed part runs
// before and after the timed phase, and across processes the counts are
// kept under the output directory keyed by the executable's hash.

// checkLedger compares the before and after counts, prints them, and
// compares them with a previous run of the same binary and seed.
func checkLedger(cfg config, g *gates, first, second, rig map[string]int64) {
	counts := map[string]int64{}
	for k, v := range first {
		counts[k] = v
		g.check(second[k] == v, "ledger count %s changed within the run: %d then %d", k, v, second[k])
	}
	for k := range second {
		if _, ok := first[k]; !ok {
			g.check(false, "ledger count %s appeared only after the timed phase", k)
		}
	}
	for k, v := range rig {
		counts[k] = v
	}
	printCounts(os.Stderr, counts)

	exe, err := executableHash()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ledger: cannot hash the executable:", err)
		return
	}
	path := filepath.Join(cfg.outDir, "ledger", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	type entry struct {
		Binary string           `json:"binary"`
		Counts map[string]int64 `json:"counts"`
	}
	if b, err := os.ReadFile(path); err == nil {
		var prev entry
		if json.Unmarshal(b, &prev) == nil && prev.Binary == exe {
			for k, v := range prev.Counts {
				if now, ok := counts[k]; ok {
					g.check(now == v, "ledger count %s is %d, a previous run of this binary read %d", k, now, v)
				}
			}
		}
	}
	b, err := json.Marshal(entry{Binary: exe, Counts: counts})
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
	}
}

func printCounts(w io.Writer, counts map[string]int64) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "ledger: %s = %d\n", k, counts[k])
	}
}

func executableHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
