package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// runConfig is one invocation of a workload.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	// scale multiplies every size and op count; the benchmark's own
	// tests run at a tiny scale, real runs at 1.
	scale float64
	// outDir receives the spans of a traced run; walDir holds the
	// daemons' write-ahead logs and is removed when the run ends.
	outDir, walDir string
}

// scaled returns max(lo, round(n*scale)).
func (c runConfig) scaled(n, lo int) int {
	v := int(math.Round(float64(n) * c.scale))
	if v < lo {
		v = lo
	}
	return v
}

// timedOps is the fixed length of the timed phase: seconds times the
// workload's nominal rate, so the same seed and run length always give
// the same operations.
func (c runConfig) timedOps(ratePerSec, lo int) int {
	return c.scaled(c.seconds*ratePerSec, lo)
}

// setupRuns is how many times a run builds its structures; setup_s is
// the median. The traced run builds once, since it reports no setup_s.
func (c runConfig) setupRuns() int {
	if c.trace {
		return 1
	}
	return 3
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// kindCount counts one op kind's attempted and failed operations.
type kindCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// report is what a workload run hands back to main.
type report struct {
	metrics map[string]metric
	kinds   map[string]*kindCount
	// wrong lists oracle violations; any entry makes the run incorrect.
	wrong []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, kinds: map[string]*kindCount{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) kind(k string) *kindCount {
	kc := r.kinds[k]
	if kc == nil {
		kc = &kindCount{}
		r.kinds[k] = kc
	}
	return kc
}

// op records one attempted operation of kind k and whether it failed.
func (r *report) op(k string, err error) {
	kc := r.kind(k)
	kc.Attempted++
	if err != nil {
		kc.Failed++
		if kc.Failed <= 3 {
			fmt.Fprintf(os.Stderr, "skipbench: %s failed: %v\n", k, err)
		}
	}
}

// ops records n attempted operations of kind k that share one outcome,
// as the ops of one batch call do.
func (r *report) ops(k string, n int, err error) {
	kc := r.kind(k)
	kc.Attempted += int64(n)
	if err != nil {
		kc.Failed += int64(n)
		fmt.Fprintf(os.Stderr, "skipbench: %s batch failed: %v\n", k, err)
	}
}

// wrongf records an oracle violation (only the first few are kept).
func (r *report) wrongf(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// merge copies the metrics of o that r lacks.
func (r *report) merge(o *report) {
	for k, v := range o.metrics {
		if _, ok := r.metrics[k]; !ok {
			r.metrics[k] = v
		}
	}
	r.wrong = append(r.wrong, o.wrong...)
}

// sample is one timed call of the timed phase: when it started (ns
// since the phase began), how long it took (ns), and how many ops it
// completed (a batch counts as its size).
type sample struct {
	at, d int64
	n     int32
}

// latencies collects the timed calls of one class (reads or writes).
type latencies []sample

// windows is how many consecutive parts of the timed phase the rate
// and latency figures are taken over; each figure is the median over
// the parts, so that interference from outside the process that hits
// one part of a run moves it little. Three parts leave at least ten
// samples beyond each part's p99 on every workload.
const windows = 3

// pct returns the median over the windows of the q-quantile (nearest
// rank) of call times, in microseconds. The calls are split in start
// order into windows parts of equal count.
func (l latencies) pct(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i].at < s[j].at })
	var per []float64
	for w := 0; w < windows; w++ {
		part := s[w*len(s)/windows : (w+1)*len(s)/windows]
		if len(part) == 0 {
			continue
		}
		d := make([]int64, len(part))
		for i, c := range part {
			d[i] = c.d
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		i := int(math.Ceil(q*float64(len(d)))) - 1
		if i < 0 {
			i = 0
		}
		per = append(per, float64(d[i])/1e3)
	}
	return median(per)
}

// opsRate returns the median over windows parts of equal length of
// the ops completed in each part per second.
func opsRate(elapsed time.Duration, classes ...latencies) float64 {
	var count [windows]int64
	width := float64(elapsed.Nanoseconds()) / windows
	for _, l := range classes {
		for _, c := range l {
			w := int(float64(c.at+c.d) / width)
			if w >= windows {
				w = windows - 1
			}
			count[w] += int64(c.n)
		}
	}
	per := make([]float64, windows)
	for w, n := range count {
		per[w] = float64(n) / (width / 1e9)
	}
	return median(per)
}

// endToEnd fills the nine end-to-end metrics from a finished timed
// phase. reads and writes hold the completed calls and readOps and
// writeOps count their ops; failed ones are left out of every figure.
func (r *report) endToEnd(setupS, heapPerKey float64, elapsed time.Duration,
	reads, writes latencies, readHops, readOps, writeHops, writeOps int64) {
	r.set("setup_s", setupS, "s")
	r.set("ops_per_s", opsRate(elapsed, reads, writes), "ops/s")
	r.set("read_p50_us", reads.pct(0.50), "us")
	r.set("read_p99_us", reads.pct(0.99), "us")
	r.set("write_p50_us", writes.pct(0.50), "us")
	r.set("write_p99_us", writes.pct(0.99), "us")
	r.set("msgs_per_read", float64(readHops)/float64(max64(readOps, 1)), "msgs/op")
	r.set("msgs_per_write", float64(writeHops)/float64(max64(writeOps, 1)), "msgs/op")
	r.set("heap_bytes_per_key", heapPerKey, "B/key")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// heapNow forces a collection and returns the live heap.
func heapNow() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapDelta is heap growth per key, never below one byte (a build that
// shrinks the heap would otherwise read as a nonsensical zero).
func heapDelta(before, after uint64, keys int) float64 {
	d := float64(after) - float64(before)
	if d < 1 {
		d = 1
	}
	return d / float64(keys)
}

// setupReps runs build reps times, collecting garbage and dropping the
// previous result between builds, and returns the median build time and
// the last build (the one the run keeps). build returns its own timed
// duration so that untimed work inside it (per-structure heap probes)
// stays out of setup_s.
func setupReps[T any](reps int, drop func(T), build func() (T, time.Duration, error)) (T, float64, error) {
	var keep T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			drop(keep)
		}
		var zero T
		keep = zero
		runtime.GC()
		v, d, err := build()
		if err != nil {
			return keep, 0, err
		}
		keep = v
		times = append(times, d.Seconds())
	}
	return keep, median(times), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gcWindow measures the Go runtime across the timed phase.
type gcWindow struct{ before runtime.MemStats }

func startGCWindow() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// finish reports GC cycles and pause per thousand ops and bytes
// allocated per op.
func (w *gcWindow) finish(r *report, ops int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	kops := float64(ops) / 1e3
	r.set("runtime.gc_cycles_per_kop", float64(after.NumGC-w.before.NumGC)/kops, "cycles/kop")
	r.set("runtime.gc_pause_us_per_kop", float64(after.PauseTotalNs-w.before.PauseTotalNs)/1e3/kops, "us/kop")
	r.set("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-w.before.TotalAlloc)/float64(ops), "B/op")
}

// calibrate times a fixed ListLevel.Locate pass over a fixed array,
// independent of the seed: the reference that tells a slower machine
// apart from a slower program. It reports the median of five passes.
func calibrate() float64 {
	const n = 1 << 16
	rng := xrand.New(0xca11b)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*64 + rng.Uint64n(64)
	}
	l, err := core.NewListLevelSorted(keys)
	if err != nil {
		panic(err) // fixed, distinct, sorted input: a failure is a bug
	}
	qs := make([]uint64, n)
	for i := range qs {
		qs[i] = rng.Uint64n(n * 64)
	}
	var passes []float64
	var sink core.RangeID
	for p := 0; p < 5; p++ {
		t := time.Now()
		for _, q := range qs {
			sink ^= l.Locate(q)
		}
		passes = append(passes, float64(time.Since(t).Nanoseconds())/n)
	}
	calibSink = sink
	return median(passes)
}

var calibSink core.RangeID

// keyUniverse is the sorted-slice oracle of the one-dimensional
// workloads: every key that may ever be stored, sorted, with a presence
// flag per key. The generator flips the flags as it emits updates, so
// the expected floor of any query at any point of the op sequence is a
// binary search plus a short backward scan over absent keys.
type keyUniverse struct {
	keys    []uint64
	present []bool
}

func newKeyUniverse(initial, later []uint64) *keyUniverse {
	all := make([]uint64, 0, len(initial)+len(later))
	all = append(all, initial...)
	all = append(all, later...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	u := &keyUniverse{keys: all, present: make([]bool, len(all))}
	for _, k := range initial {
		u.present[u.index(k)] = true
	}
	return u
}

// index returns the position of k, which must be in the universe.
func (u *keyUniverse) index(k uint64) int {
	i := sort.Search(len(u.keys), func(i int) bool { return u.keys[i] >= k })
	if i == len(u.keys) || u.keys[i] != k {
		panic(fmt.Sprintf("skipbench: key %d outside the universe", k))
	}
	return i
}

func (u *keyUniverse) set(k uint64, on bool) { u.present[u.index(k)] = on }

// has reports whether k is present; keys outside the universe never are.
func (u *keyUniverse) has(k uint64) bool {
	i := sort.Search(len(u.keys), func(i int) bool { return u.keys[i] >= k })
	return i < len(u.keys) && u.keys[i] == k && u.present[i]
}

// floor returns the largest present key <= q.
func (u *keyUniverse) floor(q uint64) (uint64, bool) {
	i := sort.Search(len(u.keys), func(i int) bool { return u.keys[i] > q }) - 1
	for ; i >= 0; i-- {
		if u.present[i] {
			return u.keys[i], true
		}
	}
	return 0, false
}

// floorMatches reports whether a floor answer equals the expected one;
// the key of a not-found answer is ignored.
func floorMatches(key uint64, found bool, wantKey uint64, wantFound bool) bool {
	return found == wantFound && (!found || key == wantKey)
}

// floorOf is the largest key <= q of an ascending slice.
func floorOf(sorted []uint64, q uint64) (uint64, bool) {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > q }) - 1
	if i < 0 {
		return 0, false
	}
	return sorted[i], true
}

// live returns the present keys in ascending order.
func (u *keyUniverse) live() []uint64 {
	var out []uint64
	for i, k := range u.keys {
		if u.present[i] {
			out = append(out, k)
		}
	}
	return out
}

// stripeParts mirrors the public layer's write striping for distinct
// uint64 keys: sort, cut into `want` rank-balanced parts, and give
// stripe i the seed substream i. The engine ladder step builds one
// engine per part, so its webs are the public structure's webs minus
// locks, caches and result wrapping.
type stripeParts struct {
	seps  []uint64
	parts [][]uint64
	seeds []uint64
}

func splitStripes(keys []uint64, want int, seed uint64) stripeParts {
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sp stripeParts
	start := 0
	for i := 1; i < want; i++ {
		pos := i * len(sorted) / want
		sp.seps = append(sp.seps, sorted[pos])
		sp.parts = append(sp.parts, sorted[start:pos])
		start = pos
	}
	sp.parts = append(sp.parts, sorted[start:])
	for i := range sp.parts {
		sp.seeds = append(sp.seeds, xrand.Substream(seed, i))
	}
	return sp
}

// of routes a key to its stripe.
func (sp stripeParts) of(k uint64) int {
	return sort.Search(len(sp.seps), func(i int) bool { return sp.seps[i] > k })
}

// pathRecorder captures the destination host of every charged message
// of a network through its delivery tap, one path per operation, for
// the sim.Op replay step of the ladder.
type pathRecorder struct {
	origins []sim.HostID
	paths   [][]sim.HostID
	cur     []sim.HostID
}

func (p *pathRecorder) install(n *sim.Network) {
	n.SetDeliver(func(h sim.HostID) { p.cur = append(p.cur, h) })
}

// end closes the current operation's path.
func (p *pathRecorder) end(origin sim.HostID) {
	p.origins = append(p.origins, origin)
	p.paths = append(p.paths, p.cur)
	p.cur = nil
}

// replayOps replays every recorded path as NewOp, Visit per hop, Free
// on a fresh network of h hosts with the given cost model, and returns
// the wall time per charged message (median of three passes).
func (p *pathRecorder) replayOps(h int, model sim.CostModel) float64 {
	net := sim.NewNetwork(h)
	net.SetCostModel(model)
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		msgs := 0
		t := time.Now()
		for i, path := range p.paths {
			op := net.NewOp(p.origins[i])
			for _, hop := range path {
				op.Visit(hop)
			}
			msgs += op.Hops()
			op.Free()
		}
		passes = append(passes, float64(time.Since(t).Nanoseconds())/float64(max64(int64(msgs), 1)))
	}
	return median(passes)
}

// twoLevel is the rack/region cost model of the batch workload: racks
// of 8 hosts, 1-5 units inside a rack, LogNormal around 100 across.
func twoLevel(seed uint64) sim.CostModel {
	return sim.TwoLevel(8, sim.Uniform(seed, 1, 5), sim.LogNormal(seed+1, math.Log(100), 0.25))
}

// Tracing. Each call the benchmark makes in a traced run is wrapped in a
// span; spans stay in memory and are written out when the run ends.
// Layers and kinds are small integers named by the tables below.

type span struct {
	id, parent uint32
	layer      uint8
	kind       uint8
	start, end int64 // ns since the tracer started
}

var layerNames = []string{"phase", "public", "engine", "local", "simop", "dispatch", "rpc", "hop", "fsync", "digest", "cache"}

const (
	lPhase = iota
	lPublic
	lEngine
	lLocal
	lSimOp
	lDispatch
	lRPC
	lHop
	lFsync
	lDigest
	lCache
)

var kindNames = []string{"-", "floor", "contains", "locate", "search", "insert", "delete", "batch-read", "batch-write", "ping"}

const (
	kNone = iota
	kFloor
	kContains
	kLocate
	kSearch
	kInsert
	kDelete
	kBatchRead
	kBatchWrite
	kPing
)

// maxSpans caps the in-memory trace so a long run cannot exhaust memory;
// spans past the cap are counted but not kept.
const maxSpans = 1 << 17

type tracer struct {
	on      bool
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer(on bool, t0 time.Time) *tracer { return &tracer{on: on, t0: t0} }

// open starts a span under parent and returns its id (0 when tracing is
// off or the cap is reached); close ends it.
func (t *tracer) open(parent uint32, layer, kind uint8) uint32 {
	if !t.on {
		return 0
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, layer: layer, kind: kind, start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) close(id uint32) {
	if id != 0 {
		t.spans[id-1].end = int64(time.Since(t.t0))
	}
}

// writeSpans dumps the spans of every tracer as tab-separated lines to
// dir/spans-<name>.tsv; the tracer index prefixes ids, since each
// client goroutine keeps its own tracer.
func writeSpans(dir, name string, trs ...*tracer) error {
	if len(trs) == 0 || !trs[0].on {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+name+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "tracer\tid\tparent\tlayer\tkind\tstart_ns\tend_ns\n")
	for ti, t := range trs {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", ti, s.id, s.parent,
				layerNames[s.layer], kindNames[s.kind], s.start, s.end)
		}
		if t.dropped > 0 {
			fmt.Fprintf(w, "# tracer %d dropped %d spans past the in-memory cap\n", ti, t.dropped)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanOverhead measures what one span costs: recording spans around an
// empty call minus the empty calls alone, per span.
func spanOverhead() float64 {
	const n = 200000
	t := &tracer{on: true, t0: time.Now(), spans: make([]span, 0, n)}
	f := func() {}
	base := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	plain := time.Since(base)
	base = time.Now()
	for i := 0; i < n; i++ {
		id := t.open(0, lPublic, kFloor)
		f()
		t.close(id)
	}
	traced := time.Since(base)
	d := float64((traced - plain).Nanoseconds()) / n
	if d < 1 {
		d = 1
	}
	return d
}

// timeEach times fn over n indices and returns ns per call, recording
// one span per call, under one phase span, when tracing.
func timeEach(tr *tracer, layer, kind uint8, n int, fn func(i int)) float64 {
	ph := tr.open(0, lPhase, kind)
	start := time.Now()
	for i := 0; i < n; i++ {
		id := tr.open(ph, layer, kind)
		fn(i)
		tr.close(id)
	}
	el := time.Since(start)
	tr.close(ph)
	return float64(el.Nanoseconds()) / float64(max64(int64(n), 1))
}
