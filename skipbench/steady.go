package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyMain runs one workload N times, each in a fresh process with
// its own seed, and prints the median, quartiles and (q3-q1)/median of
// every metric: the spread the end-to-end bounds are set from.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("skipbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seed := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 10, "run length")
	trace := fs.Int("trace", 0, "trace flag passed to every run")
	out := fs.String("out", defaultOut(), "directory for WAL files and spans, passed to every run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *runs < 1 {
		fmt.Fprintln(os.Stderr, "skipbench steady: need --workload and --runs >= 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "skipbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		s := *seed + uint64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace), "--out", *out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipbench steady: run %d (seed %d): %v\n", i, s, err)
			return 1
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(os.Stderr, "skipbench steady: run %d: bad result line: %v\n", i, err)
			return 1
		}
		fmt.Printf("run %d seed %d correct %v attempted %d failed %d", i, s, res.Correct, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf(" %s=%.6g", k, res.Metrics[k].Value)
		}
		fmt.Println()
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %14s %10s %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-34s %14.4f %14.4f %14.4f %10.4f %s\n", k, q1, med, q3, spread, units[k])
	}
	return 0
}

func lastLine(out []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), with the median in the middle.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
