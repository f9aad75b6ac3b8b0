package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// tinyRun runs a workload at a tiny scale into a test directory.
func tinyRun(t *testing.T, name string, trace bool) *report {
	t.Helper()
	dir := t.TempDir()
	c := runConfig{seed: 7, seconds: 1, trace: trace, scale: 0.01,
		outDir: filepath.Join(dir, name), walDir: filepath.Join(dir, "wal")}
	rep, err := runWorkload(name, c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.wrong) > 0 {
		t.Fatalf("%s: wrong answers: %v", name, rep.wrong)
	}
	for k, kc := range rep.kinds {
		if kc.Attempted == 0 || kc.Failed != 0 {
			t.Errorf("%s: op %s attempted %d failed %d", name, k, kc.Attempted, kc.Failed)
		}
	}
	return rep
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// mayBeZero names per-layer metrics that can legitimately read zero or
// below at a tiny scale: GC counters when no collection falls in the
// timed phase, and differences of two timings that tiny runs cannot
// resolve.
var mayBeZero = map[string]bool{
	"runtime.gc_cycles_per_kop":   true,
	"runtime.gc_pause_us_per_kop": true,
	"skipwebs.stripe_overhead_ns": true,
	"dispatch.read_ns_per_op":     true,
	"dispatch.write_ns_per_op":    true,
}

// parseResult runs emit and parses its last line.
func parseResult(t *testing.T, rep *report, traced bool) (result, int) {
	t.Helper()
	var out bytes.Buffer
	code := emit(&out, rep, traced)
	var res result
	last := lastLine(out.Bytes())
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatalf("last line does not parse: %v\n%s", err, last)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil || len(keys) != 4 {
		t.Fatalf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	return res, code
}

func TestWorkloadsRunAndReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			rep := tinyRun(t, name, traced)
			res, code := parseResult(t, rep, traced)
			if code != 0 || !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: exit %d, %+v", name, traced, code, res)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, want %q", name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
				case got.Value <= 0 && !mayBeZero[m.Name]:
					t.Errorf("%s traced=%v: metric %s = %v, want > 0", name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	rep := newReport()
	rep.op("floor", nil)
	rep.set("setup_s", 1, "s")
	rep.wrongf("floor(5) = 3, want 4")
	res, code := parseResult(t, rep, false)
	if code == 0 || res.Correct {
		t.Fatalf("a wrong answer gave exit %d, correct %v", code, res.Correct)
	}
}

func TestFailedOpFailsTheRun(t *testing.T) {
	rep := newReport()
	rep.op("floor", nil)
	rep.op("floor", os.ErrDeadlineExceeded)
	rep.set("setup_s", 1, "s")
	res, code := parseResult(t, rep, false)
	if code == 0 || res.Failed != 1 || res.Attempted != 2 {
		t.Fatalf("a failed op gave exit %d, %+v", code, res)
	}
}

func TestFloorOracleRejectsCorruptAnswers(t *testing.T) {
	u := newKeyUniverse([]uint64{10, 20, 30}, []uint64{25})
	if k, ok := u.floor(27); !ok || k != 20 {
		t.Fatalf("floor(27) = %d, %v before the insert", k, ok)
	}
	u.set(25, true)
	u.set(10, false)
	for _, c := range []struct {
		q    uint64
		want uint64
		ok   bool
	}{{9, 0, false}, {10, 0, false}, {24, 20, true}, {25, 25, true}, {99, 30, true}} {
		k, ok := u.floor(c.q)
		if !floorMatches(k, ok, c.want, c.ok) {
			t.Errorf("floor(%d) = %d, %v, want %d, %v", c.q, k, ok, c.want, c.ok)
		}
		if floorMatches(k+1, ok, c.want, c.ok) && ok {
			t.Errorf("floor(%d): a corrupted key %d was accepted", c.q, k+1)
		}
		if floorMatches(k, !ok, c.want, c.ok) {
			t.Errorf("floor(%d): a flipped found flag was accepted", c.q)
		}
	}
	if u.has(26) || !u.has(25) || u.has(10) {
		t.Error("membership disagrees with the presence flags")
	}
}

func TestWebSyncOracleRejectsCorruptAnswers(t *testing.T) {
	in := genWebSync(runConfig{seed: 3, seconds: 1, scale: 0.01})
	var results [wsClients][]wsResult
	// Answer every op correctly from the final sets (the stable keys are
	// stored throughout, so their floors are exact).
	stable := []uint64{}
	for i := 0; i < in.n0[sOneDim]; i++ {
		if in.stable[sOneDim][i] {
			stable = append(stable, in.keys[i])
		}
	}
	sort.Slice(stable, func(i, j int) bool { return stable[i] < stable[j] })
	for cl := range results {
		results[cl] = make([]wsResult, len(in.ops[cl]))
		for i, op := range in.ops[cl] {
			switch op.kind {
			case kFloor:
				k, ok := floorOf(stable, op.q)
				results[cl][i] = wsResult{key: k, ok: ok}
			case kLocate, kSearch:
				results[cl][i] = wsResult{ok: int(op.idx) < in.n0[op.st]}
			}
		}
	}
	good := newReport()
	checkWebSyncOps(good, in, results)
	if len(good.wrong) > 0 {
		t.Fatalf("correct answers rejected: %v", good.wrong)
	}
	corrupt := func(kind uint8, f func(r *wsResult)) {
		t.Helper()
		for i, op := range in.ops[0] {
			if op.kind != kind || (kind == kFloor && !results[0][i].ok) {
				continue
			}
			saved := results[0][i]
			f(&results[0][i])
			rep := newReport()
			checkWebSyncOps(rep, in, results)
			results[0][i] = saved
			if len(rep.wrong) == 0 {
				t.Errorf("corrupted %s answer accepted", kindNames[kind])
			}
			return
		}
		t.Fatalf("no %s op to corrupt", kindNames[kind])
	}
	corrupt(kFloor, func(r *wsResult) { r.key-- })       // never stored, or below a stable key
	corrupt(kFloor, func(r *wsResult) { r.ok = false })  // a stable key missed
	corrupt(kLocate, func(r *wsResult) { r.ok = !r.ok }) // found flag flipped
	corrupt(kSearch, func(r *wsResult) { r.bad = true }) // locus not a prefix
	corrupt(kSearch, func(r *wsResult) { r.ok = !r.ok }) // exactness flipped
}

func TestDigestOracleRejectsCorruptKeySet(t *testing.T) {
	keys := []uint64{1, 5, 9}
	want := keyDigest(keys)
	if got := keyDigest([]uint64{1, 5, 10}); got == want {
		t.Error("digests of different key sets agree")
	}
	if got := keyDigest([]uint64{1, 5}); got == want {
		t.Error("digests of different key counts agree")
	}
}

func TestZipfBatchAnswersCheckedAgainstOracle(t *testing.T) {
	in := genZipfBatch(runConfig{seed: 5, seconds: 1, scale: 0.005})
	zs, _, _, _, err := buildZipfBatch(in, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer zs.c.Close()
	b := in.warmup[0]
	b.wantKey = append([]uint64(nil), b.wantKey...)
	b.wantFound = append([]bool(nil), b.wantFound...)
	rep := newReport()
	zs.runBatch(rep, &b)
	if len(rep.wrong) > 0 {
		t.Fatalf("correct batch rejected: %v", rep.wrong)
	}
	// An oracle that disagrees with the program's answer must flag it.
	b.wantFound[0] = !b.wantFound[0]
	zs.runBatch(rep, &b)
	if len(rep.wrong) == 0 {
		t.Error("a floor batch answer that disagrees with the oracle was accepted")
	}
}

func TestWindowedFiguresIgnoreOneSlowWindow(t *testing.T) {
	// A 3 ms phase: 10 calls of 100 us, then 200 calls of 10 us, each
	// call of 2 ops starting when the previous one ends. Interference
	// slows the first millisecond only.
	var l latencies
	at := int64(0)
	for i := 0; i < 210; i++ {
		d := int64(10000)
		if i < 10 {
			d = 100000
		}
		l = append(l, sample{at: at, d: d, n: 2})
		at += d
	}
	if p := l.pct(0.99); p != 10 {
		t.Errorf("windowed p99 = %v us, want 10", p)
	}
	if got := opsRate(time.Duration(at), l); math.Abs(got-200000) > 1e-6 {
		t.Errorf("windowed rate = %v ops/s, want 200000", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestZipfFinalCheckRejectsSwappedKey(t *testing.T) {
	in := genZipfBatch(runConfig{seed: 5, seconds: 1, scale: 0.005})
	in.final = in.initial
	for st := range zbNames {
		zs, _, _, _, err := buildZipfBatch(in, 5)
		if err != nil {
			t.Fatal(err)
		}
		good := newReport()
		checkZipfFinal(good, zs, in)
		if len(good.wrong) > 0 {
			zs.c.Close()
			t.Fatalf("correct final sets rejected: %v", good.wrong)
		}
		// Swap one expected key for another in one structure only, so
		// its key count still matches.
		lost, extra := []uint64{in.initial[0]}, []uint64{in.initial[0] + 1}
		if st == zbBlocked {
			_, err = zs.bl.DeleteBatch(lost, nil)
			if err == nil {
				_, err = zs.bl.InsertBatch(extra, nil)
			}
		} else {
			_, err = zs.bu.DeleteBatch(lost, nil)
			if err == nil {
				_, err = zs.bu.InsertBatch(extra, nil)
			}
		}
		if err != nil {
			zs.c.Close()
			t.Fatal(err)
		}
		bad := newReport()
		checkZipfFinal(bad, zs, in)
		zs.c.Close()
		if len(bad.wrong) == 0 {
			t.Errorf("%s lost key %d for %d and the final check passed", zbNames[st], lost[0], extra[0])
		}
	}
}
