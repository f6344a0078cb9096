// Command hoplite-bench regenerates the tables and figures of the Hoplite
// paper's evaluation (§5, Appendices A and B) on the emulated testbed.
//
// Usage:
//
//	hoplite-bench -fig all
//	hoplite-bench -fig 7 -nodes 4,8,12,16
//	hoplite-bench -fig 15 -quick
//
// The scale model (object sizes divided down, a shaped loopback fabric) is
// internal/bench's Scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hoplite/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: dir, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, or all")
	nodesFlag := flag.String("nodes", "", "comma-separated node counts (figure-specific defaults otherwise)")
	quick := flag.Bool("quick", false, "use the quick scale (smaller sizes, 1 repeat)")
	divisor := flag.Int64("divisor", 0, "override the object-size divisor")
	repeats := flag.Int("repeats", 0, "override the number of repeats per measurement")
	flag.Parse()

	sc := bench.DefaultScale()
	if *quick {
		sc = bench.QuickScale()
	}
	if *divisor > 0 {
		sc.SizeDivisor = *divisor
	}
	if *repeats > 0 {
		sc.Repeats = *repeats
	}

	nodes := parseNodes(*nodesFlag)
	run := func(name string) bool { return *fig == "all" || *fig == name }

	type job struct {
		name string
		fn   func() ([]*bench.Table, error)
	}
	jobs := []job{
		{"dir", func() ([]*bench.Table, error) { return bench.DirectoryMicro(sc) }},
		{"6", func() ([]*bench.Table, error) { return bench.Figure6(sc) }},
		{"7", func() ([]*bench.Table, error) { return bench.Figure7(sc, def(nodes, []int{4, 8, 12, 16})) }},
		{"8", func() ([]*bench.Table, error) {
			return bench.Figure8(sc, defOne(nodes, 16), []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond})
		}},
		{"9", func() ([]*bench.Table, error) { return bench.Figure9(sc, def(nodes, []int{8, 16}), 8) }},
		{"10", func() ([]*bench.Table, error) { return bench.Figure10(sc, def(nodes, []int{8, 16}), 8) }},
		{"11", func() ([]*bench.Table, error) { return bench.Figure11(sc, def(nodes, []int{8, 16}), 20) }},
		{"12", func() ([]*bench.Table, error) { return bench.Figure12(sc, 45) }},
		{"13", func() ([]*bench.Table, error) { return bench.Figure13(sc, def(nodes, []int{8, 16}), 4) }},
		{"14", func() ([]*bench.Table, error) { return bench.Figure14(sc, def(nodes, []int{4, 8, 12, 16})) }},
		{"15", func() ([]*bench.Table, error) {
			return bench.Figure15(sc, []int64{4 << 10, 256 << 10, 4 << 20, 32 << 20}, def(nodes, []int{8, 16, 32}))
		}},
	}

	ran := false
	for _, j := range jobs {
		if !run(j.name) {
			continue
		}
		ran = true
		fmt.Printf("=== figure %s (divisor 1/%d, %.0f MB/s, L=%v, %d repeats) ===\n",
			j.name, sc.SizeDivisor, sc.Bandwidth/(1<<20), sc.Latency, sc.Repeats)
		tables, err := j.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", j.name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func parseNodes(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad -nodes value %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func def(nodes, fallback []int) []int {
	if len(nodes) > 0 {
		return nodes
	}
	return fallback
}

func defOne(nodes []int, fallback int) int {
	if len(nodes) > 0 {
		return nodes[0]
	}
	return fallback
}
