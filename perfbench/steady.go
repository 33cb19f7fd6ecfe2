package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// steady is the steadiness tool: it runs one workload n times, each in a
// child process of this binary with its own seed (seed, seed+1, ...), and
// prints every metric's median, quartiles and spread (interquartile range
// ÷ median). The benchmark's bounds are set from these spreads, and two
// invocations on the same code show whether two sets of runs agree.
func steady(cfg config, n int, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for k := 0; k < n; k++ {
		seed := cfg.seed + int64(k)
		cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64), "--trace", trace, "--scratch", cfg.scratch)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, line, err := lastResult(&stdout)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Fprintf(w, "seed %d: %s\n", seed, line)
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d operations failed", seed, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			if _, ok := units[name]; !ok {
				names = append(names, name)
				units[name] = m.Unit
			}
			values[name] = append(values[name], m.Value)
		}
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%s, %d runs of %g s, seeds %d..%d:\n", cfg.workload, n, cfg.seconds.Seconds(), cfg.seed, cfg.seed+int64(n)-1)
	fmt.Fprintf(w, "  %-28s %-6s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(w, "  %-28s %-6s %14.6g %14.6g %14.6g %9.4f\n", name, units[name], q1, q2, q3, spread)
	}
	return nil
}

// lastResult decodes the result object on the last line of a run's
// standard output.
func lastResult(r io.Reader) (resultJSON, string, error) {
	var res resultJSON
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if t := sc.Text(); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return res, "", err
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, "", fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, last, nil
}
