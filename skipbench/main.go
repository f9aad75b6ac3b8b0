// Command skipbench is the skip-web stack's benchmark. One invocation
// runs one named workload at one seed, checks every answer against
// oracles computed from the generated inputs, and prints every metric
// by name and unit; the last line of standard output is the JSON
// result. With --trace 1 it instead replays the workload's recorded op
// stream down the layer ladder and prints the per-layer metrics.
//
//	skipbench --workload web-sync --seed 1 --seconds 10 --trace 0
//	skipbench steady --workload zipf-batch --runs 10 --seconds 10
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"web-sync":   runWebSync,
	"zipf-batch": runZipfBatch,
	"daemon-wal": runDaemonWAL,
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("skipbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: web-sync, zipf-batch or daemon-wal")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics")
	out := fs.String("out", defaultOut(), "directory for WAL files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "skipbench: need --workload (web-sync, zipf-batch, daemon-wal), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// Spans of the latest traced run of each workload are kept; WAL
	// directories live only as long as the run.
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1,
		outDir: filepath.Join(*out, *name), walDir: filepath.Join(*out, fmt.Sprintf("wal-%d", os.Getpid()))}
	defer os.RemoveAll(cfg.walDir)
	rep, err := runWorkload(*name, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipbench: %s: %v\n", *name, err)
		return 1
	}
	return emit(os.Stdout, rep, cfg.trace)
}

// runWorkload runs one workload. A traced run adds the calibration
// loop, the tracing cost, and the other workloads' layers probed at a
// small fixed size, so that every traced run reports the whole ladder.
// The probes run in a fixed order, and a metric the workload lacks is
// taken only from its home workload's probe (probeHome), so a name
// always carries the same workload's figure.
func runWorkload(name string, cfg runConfig) (*report, error) {
	calib := calibrate()
	rep, err := workloads[name](cfg)
	if err != nil || !cfg.trace {
		return rep, err
	}
	rep.set("calib.listlevel_locate_ns", calib, "ns")
	rep.set("trace.overhead_ns_per_op", spanOverhead(), "ns")
	for _, other := range workloadOrder {
		if other == name {
			continue
		}
		probe := cfg
		probe.seconds, probe.scale = 1, cfg.scale*probeScale
		probe.outDir = filepath.Join(cfg.outDir, "probe-"+other)
		pr, err := workloads[other](probe)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", other, err)
		}
		for k := range pr.metrics {
			if home, shared := probeHome[k]; shared && home != other {
				delete(pr.metrics, k)
			}
		}
		rep.merge(pr)
	}
	return rep, nil
}

// workloadOrder is the order the probes of a traced run are made in.
var workloadOrder = []string{"web-sync", "zipf-batch", "daemon-wal"}

// probeHome names, for each per-layer metric that more than one
// workload measures, the workload whose probe supplies it to a traced
// run of a workload that does not measure it: the first workload the
// README's per-layer table assigns it to.
var probeHome = map[string]string{
	"core.listlevel_locate_ns":   "web-sync",
	"sim.op_ns_per_msg":          "web-sync",
	"sim.op_ns_per_msg_twolevel": "zipf-batch",
	"core.blocked_query_ns":      "zipf-batch",
	"core.bucket_query_ns":       "zipf-batch",
	"core.blocked_insert_ns":     "zipf-batch",
	"heap.blocked_bytes_per_key": "zipf-batch",
}

// defaultOut is skipbench-out under the build directory: $CARGO_TARGET_DIR
// when set, else .bench_build.
func defaultOut() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "skipbench-out")
}

// probeScale sizes the probes of the other workloads in a traced run.
const probeScale = 0.1

// endToEndNames lists the metrics of an untraced run; a traced run
// prints every other metric the workload produced.
var endToEndNames = map[string]bool{
	"setup_s": true, "ops_per_s": true, "read_p50_us": true, "read_p99_us": true,
	"write_p50_us": true, "write_p99_us": true, "msgs_per_read": true,
	"msgs_per_write": true, "heap_bytes_per_key": true,
}

// emit prints the per-kind op counts, any oracle violations, and the
// result line, and returns the exit code.
func emit(w io.Writer, rep *report, traced bool) int {
	kinds := make([]string, 0, len(rep.kinds))
	for k := range rep.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var res result
	for _, k := range kinds {
		kc := rep.kinds[k]
		fmt.Fprintf(w, "op %-18s attempted %9d failed %d\n", k, kc.Attempted, kc.Failed)
		res.Attempted += kc.Attempted
		res.Failed += kc.Failed
	}
	for _, wr := range rep.wrong {
		fmt.Fprintf(w, "WRONG %s\n", wr)
	}
	res.Correct = len(rep.wrong) == 0
	// Every metric is printed for reading (a traced run's end-to-end
	// figures show what tracing costs); the result line carries the
	// end-to-end metrics of an untraced run or the per-layer ones of a
	// traced run.
	res.Metrics = map[string]metric{}
	names := make([]string, 0, len(rep.metrics))
	for k, v := range rep.metrics {
		names = append(names, k)
		if endToEndNames[k] != traced {
			res.Metrics[k] = v
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %-34s %14.4f %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	// Every workload is made of ops that succeed, so a failed op is a
	// fault of the program, as a wrong answer is.
	if !res.Correct || res.Attempted == 0 || res.Failed > 0 {
		return 1
	}
	return 0
}
