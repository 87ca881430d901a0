// Command perfbench is the repository's benchmark. It runs one named
// workload for a seed, measures it for a given time and checks the outputs:
//
//	bash perfbench/run.sh --workload sweep-plan --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics. The last line of standard output
// is the result as one JSON object. README.md defines the workloads and every
// metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times an untraced run sets up its workload — once in
// this process and the rest in child processes — to report setup_s as a
// median.
const setupRuns = 3

func main() { os.Exit(run()) }

func run() int {
	start := time.Now()
	workload := flag.String("workload", "sweep-plan", "workload: sweep-plan, sweep-motion or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed; the program receives only inputs generated from it")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print the set-up seconds and exit")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b, err := newBench(*workload, *seed, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer b.close()
	if *setupOnly {
		if err := b.setup(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Println(time.Since(start).Seconds())
		return 0
	}

	pre := time.Since(start)
	var setups []float64
	if *trace == 0 {
		for range setupRuns - 1 {
			s, err := childSetup(*workload, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: setup in a child process:", err)
				return 1
			}
			setups = append(setups, s)
		}
	}
	t := time.Now()
	if err := b.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	if *trace == 0 {
		setups = append(setups, (pre + time.Since(t)).Seconds())
	}

	dur := time.Duration(*seconds * float64(time.Second))
	out, err := b.run(dur, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := perLayer
	if *trace == 0 {
		defs = endToEnd
		out.metrics["setup_s"] = quantile(setups, 0.5)
		out.metrics["max_rss_mb"] = maxRSSMB()
		out.notes["setup_samples_s"] = setups
	}

	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", *workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	env := stamp(*workload, *seed, *seconds, *trace, b.params(), out.storeDir)
	if err := writeResults(env, res, out, *workload, *seed, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing results:", err)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.correct {
		fmt.Fprintf(os.Stderr, "perfbench: wrong outputs: %v\n", out.notes["errors"])
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// childSetup sets the workload up in a fresh process and returns its
// process-start-to-ready seconds.
func childSetup(workload string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-only", "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		return 0, errors.New("no set-up time printed")
	}
	return strconv.ParseFloat(fields[len(fields)-1], 64)
}

// maxRSSMB is the process's peak resident set (VmHWM), in MB.
func maxRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// outDir is where runs keep their results, spans and scratch stores.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "perfbench")
}

// writeResults keeps the run's full record — environment stamp, result,
// notes — and, for a traced run, its spans as JSON Lines.
func writeResults(env map[string]any, res result, out *outcome, workload string, seed int64, trace int) error {
	dir := filepath.Join(outDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace))
	raw, err := json.MarshalIndent(map[string]any{"env": env, "result": res, "notes": out.notes}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return err
	}
	if trace == 0 {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range out.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(base+"-spans.jsonl", buf.Bytes(), 0o644)
}
