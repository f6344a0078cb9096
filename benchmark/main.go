// Command benchmark is the repository's benchmark: it boots in-process
// Hoplite clusters through the public API, drives one of five closed-loop
// workloads from this process, checks every payload, and prints every
// metric by name with its unit. See README.md and ../BENCHMARK.json.
//
//	run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// measures one workload once and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Without --workload it runs every workload both ways,
// each in a process of its own; with -repeat N it does so N times on N
// seeds and checks each end-to-end metric's spread against its bound.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 15

// hardLimit ends a run that wedged in spite of the per-operation
// deadlines, inside the 180 s the driver allows one run.
const hardLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, each in its own process)")
	seed := fs.Int64("seed", 1, "seed of the generated ObjectIDs and payloads")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds one run measures")
	trace := fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics (default: both)")
	repeat := fs.Int("repeat", 1, "run this many sets on consecutive seeds and check each metric's spread against its bound")
	quick := fs.Bool("quick", false, "a tenth of the seconds and one boot, for smoke use")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var selected []*workload
	if *name == "" || *name == "all" {
		selected = workloads
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if len(selected) == 1 && *repeat <= 1 && (*trace == 0 || *trace == 1) {
		if *quick {
			*seconds /= 10
		}
		cfg := runConfig{w: selected[0], seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, outDir: outDir()}
		return runOne(cfg, stdout, stderr)
	}
	modes := []int{0, 1}
	if *trace == 0 || *trace == 1 {
		modes = []int{*trace}
	}
	return runSets(selected, modes, *seed, *seconds, *repeat, *quick, stdout, stderr)
}

// outDir is where traces and spill files go: next to the sources when the
// program runs from the repository root, as run.sh and the driver do.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// runOne measures one workload in this process.
func runOne(cfg runConfig, stdout, stderr io.Writer) int {
	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(stderr, "benchmark: %s still running after %v, giving up\n", cfg.w.name, hardLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fabric := "host loopback TCP (no real link)"
	if cfg.w.options("").Emulate != nil {
		fabric = "in-process netem emulation over host loopback (no real link)"
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  %.3g s  trace %v\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "  why: %s\n", cfg.w.why)
	fmt.Fprintf(stdout, "  closed loop, %d client(s), %d nodes in one process; %s\n", cfg.w.clients, cfg.w.nodes, fabric)
	fmt.Fprintf(stdout, "  nproc %d  GOMAXPROCS %d  %s  commit %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	res := runWorkload(context.Background(), cfg)
	res.printTable(func(format string, args ...any) { fmt.Fprintf(stdout, format, args...) })
	if res.err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.w.name, res.err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout that is not a git repository records none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runSets runs every selected workload in every mode, repeat times on
// consecutive seeds, each run in a fresh process: peak RSS and the heap's
// state must not leak from one run into the next. With repeat > 1 it
// prints each metric's quartiles and fails when an end-to-end metric's
// spread exceeds its bound, which is the check the driver makes.
func runSets(selected []*workload, modes []int, seed int64, seconds float64, repeat int, quick bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		for _, mode := range modes {
			values := make(map[string][]float64)
			for r := 0; r < repeat; r++ {
				args := []string{
					"--workload", w.name,
					"--seed", strconv.FormatInt(seed+int64(r), 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
					"--trace", strconv.Itoa(mode),
				}
				if quick {
					args = append(args, "--quick")
				}
				var buf bytes.Buffer
				cmd := exec.Command(self, args...)
				cmd.Stdout = &buf
				cmd.Stderr = stderr
				runErr := cmd.Run()
				if repeat == 1 {
					stdout.Write(buf.Bytes())
				}
				res, perr := lastLine(buf.Bytes())
				if runErr != nil || perr != nil {
					fmt.Fprintf(stderr, "benchmark: %s trace %d seed %d: run %v, result %v\n", w.name, mode, seed+int64(r), runErr, perr)
					code = 1
					continue
				}
				for name, v := range res.Metrics {
					values[name] = append(values[name], v.Value)
				}
			}
			if repeat > 1 && !summarise(w, mode, values, stdout) {
				code = 1
			}
		}
	}
	return code
}

// lastLine parses the result a run printed as its last line.
func lastLine(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// summarise prints the quartiles of every metric over the sets and
// reports whether every gated spread is within its bound.
func summarise(w *workload, mode int, values map[string][]float64, stdout io.Writer) bool {
	defs := endToEnd
	if mode == 1 {
		defs = perLayer
	}
	ok := true
	fmt.Fprintf(stdout, "%s  trace %d\n", w.name, mode)
	fmt.Fprintf(stdout, "  %-34s %5s %12s %12s %12s %8s %6s\n", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, d := range defs {
		vs := values[d.name]
		if len(vs) < 2 {
			fmt.Fprintf(stdout, "  %-34s %5d  too few runs\n", d.name, len(vs))
			ok = false
			continue
		}
		q1, q2, q3 := quartiles(vs)
		sp := spread(vs)
		verdict := ""
		// setup_s is exempt from the spread check, as it is in the driver's.
		if mode == 0 && d.name != "setup_s" {
			verdict = "ok"
			if !(sp <= d.bound) {
				verdict = "SPREAD EXCEEDS BOUND"
				ok = false
			}
		}
		fmt.Fprintf(stdout, "  %-34s %5d %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s\n", d.name, len(vs), q1, q2, q3, 100*sp, 100*d.bound, verdict)
	}
	return ok
}
