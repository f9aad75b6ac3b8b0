package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	sw "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// zipf-batch: one generator goroutine drives Blocked and Bucketed,
// built with finger caches, negative blooms, four write stripes and the
// two-level latency model, through the batch API, on one P (see
// runZipfBatch). A round is four read batches (FloorBatch and
// ContainsBatch on each structure) followed by four write batches
// (InsertBatch then DeleteBatch on each, the same keys on both). Read
// and write batches alternate and never overlap, so every cache hit,
// bloom answer and message count is a function of the seed alone.
//
// Reads draw 75% of their keys Zipf(1.2) over the stored keys and 25%
// from keys never stored. Each read batch has 8 origin hosts with 8
// ops each, each write batch 2 origins with 4 ops each; write batches
// are sorted ascending within each origin group, so InsertBatch takes
// its sorted-run path.

const (
	zbHosts       = 64
	zbStripes     = 4
	zbKeys        = 600000
	zbReadOrigins = 8
	zbReadPer     = 8
	zbWriteOrig   = 2
	zbWritePer    = 4
	zbZipfS       = 1.2
	// zbRoundsPerSec is the nominal round rate sizing the timed phase.
	zbRoundsPerSec = 270
	zbWarmRounds   = 100
	// zbLadderRounds caps the rounds the traced ladder replays.
	zbLadderRounds = 600
	// zbHotKeep keeps the hottest ranks out of the delete pool.
	zbHotKeep = 1024
)

const (
	zbBlocked = iota
	zbBucketed
)

var zbNames = []string{"blocked", "bucketed"}

// zbOpName names an op kind on a structure, for the per-kind counts.
func zbOpName(st, kind uint8) string { return zbOpNames[st][kind] }

var zbOpNames = func() [2][]string {
	var out [2][]string
	for st, s := range zbNames {
		for _, k := range kindNames {
			out[st] = append(out[st], s+"."+k)
		}
	}
	return out
}()

// zbBatch is one batch call with its expected answers.
type zbBatch struct {
	st      uint8
	kind    uint8 // kFloor, kContains, kInsert, kDelete
	keys    []uint64
	origins []sw.HostID
	// expected floor answers (kFloor) or membership (kContains)
	wantKey   []uint64
	wantFound []bool
}

type zbInputs struct {
	initial []uint64
	warmup  []zbBatch
	rounds  [][]zbBatch
	final   []uint64
}

func genZipfBatch(c runConfig) *zbInputs {
	n := c.scaled(zbKeys, 512)
	gen := newItemGen(xrand.Substream(c.seed, 200))
	in := &zbInputs{initial: make([]uint64, n)}
	for i := range in.initial {
		in.initial[i] = gen.key(0)
	}
	nRounds := c.timedOps(zbRoundsPerSec, 300)
	fresh := make([]uint64, nRounds*zbWriteOrig*zbWritePer)
	for i := range fresh {
		fresh[i] = gen.key(1)
	}
	u := newKeyUniverse(in.initial, fresh)
	rng := xrand.New(xrand.Substream(c.seed, 201))
	// hot[r] is the key of Zipf rank r: a seeded permutation of the
	// initial keys.
	hot := append([]uint64(nil), in.initial...)
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	zipf := xrand.NewZipf(rng.Split(), zbZipfS, len(hot))
	keep := zbHotKeep
	if keep > len(hot)/2 {
		keep = len(hot) / 2
	}
	pool := append([]uint64(nil), hot[keep:]...) // keys writes may delete

	origins := func(groups, per int) []sw.HostID {
		perm := rng.Perm(zbHosts)[:groups]
		out := make([]sw.HostID, 0, groups*per)
		for _, h := range perm {
			for j := 0; j < per; j++ {
				out = append(out, sw.HostID(h))
			}
		}
		return out
	}
	read := func(st, kind uint8) zbBatch {
		b := zbBatch{st: st, kind: kind, origins: origins(zbReadOrigins, zbReadPer)}
		for range b.origins {
			var k uint64
			if rng.Intn(4) == 0 {
				k = rng.Uint64n(1<<38)<<2 | 2 // never stored
			} else {
				k = hot[zipf.Next()]
			}
			b.keys = append(b.keys, k)
			if kind == kFloor {
				f, ok := u.floor(k)
				b.wantKey = append(b.wantKey, f)
				b.wantFound = append(b.wantFound, ok)
			} else {
				b.wantFound = append(b.wantFound, u.has(k))
			}
		}
		return b
	}
	readRound := func() []zbBatch {
		var out []zbBatch
		for st := uint8(0); st < 2; st++ {
			out = append(out, read(st, kFloor), read(st, kContains))
		}
		return out
	}
	// sortGroups sorts keys ascending within each origin group.
	sortGroups := func(keys []uint64) {
		for g := 0; g < zbWriteOrig; g++ {
			s := keys[g*zbWritePer : (g+1)*zbWritePer]
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		}
	}
	for i := 0; i < zbWarmRounds; i++ {
		in.warmup = append(in.warmup, readRound()...)
	}
	next := 0
	for r := 0; r < nRounds; r++ {
		round := readRound()
		ins := fresh[next : next+zbWriteOrig*zbWritePer]
		next += len(ins)
		sortGroups(ins)
		del := make([]uint64, len(ins))
		for i := range del {
			j := rng.Intn(len(pool))
			del[i] = pool[j]
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		}
		sortGroups(del)
		io, do := origins(zbWriteOrig, zbWritePer), origins(zbWriteOrig, zbWritePer)
		for st := uint8(0); st < 2; st++ {
			round = append(round, zbBatch{st: st, kind: kInsert, keys: ins, origins: io})
		}
		for st := uint8(0); st < 2; st++ {
			round = append(round, zbBatch{st: st, kind: kDelete, keys: del, origins: do})
		}
		for _, k := range ins {
			u.set(k, true)
		}
		for _, k := range del {
			u.set(k, false)
		}
		pool = append(pool, ins...)
		in.rounds = append(in.rounds, round)
	}
	in.final = u.live()
	return in
}

// zbStructs is one built zipf-batch cluster.
type zbStructs struct {
	c  *sw.Cluster
	bl *sw.Blocked
	bu *sw.Bucketed
}

func zbOptions(seed uint64) sw.Options {
	return sw.Options{Seed: seed, WriteStripes: zbStripes, CacheFingers: true, NegativeBloom: true,
		Latency: twoLevel(seed)}
}

func buildZipfBatch(in *zbInputs, seed uint64) (*zbStructs, time.Duration, [2]float64, float64, error) {
	var heap [2]float64
	zs := &zbStructs{c: sw.NewCluster(zbHosts)}
	opts := zbOptions(seed)
	h0 := heapNow()
	t := time.Now()
	bl, err := sw.NewBlocked(zs.c, in.initial, opts)
	took := time.Since(t)
	if err != nil {
		return nil, 0, heap, 0, err
	}
	h1 := heapNow()
	t = time.Now()
	bu, err := sw.NewBucketed(zs.c, in.initial, opts)
	took += time.Since(t)
	if err != nil {
		return nil, 0, heap, 0, err
	}
	h2 := heapNow()
	zs.bl, zs.bu = bl, bu
	heap[zbBlocked] = heapDelta(h0, h1, len(in.initial))
	heap[zbBucketed] = heapDelta(h1, h2, len(in.initial))
	return zs, took, heap, heapDelta(h0, h2, 2*len(in.initial)), nil
}

// batchOutcome is what one batch call returned, reduced to totals.
type batchOutcome struct {
	hops int64
	lat  int64
	err  error
}

// runBatch issues one batch call and checks its answers.
func (zs *zbStructs) runBatch(r *report, b *zbBatch) batchOutcome {
	var out batchOutcome
	name := zbOpName(b.st, b.kind)
	switch b.kind {
	case kFloor:
		var res []sw.FloorResult
		if b.st == zbBlocked {
			res, out.err = zs.bl.FloorBatch(b.keys, b.origins)
		} else {
			res, out.err = zs.bu.FloorBatch(b.keys, b.origins)
		}
		for i, f := range res {
			out.hops += int64(f.Hops)
			out.lat += f.Latency
			if !floorMatches(f.Key, f.Found, b.wantKey[i], b.wantFound[i]) {
				r.wrongf("%s(%d) = (%d, %v), want (%d, %v)", name, b.keys[i], f.Key, f.Found, b.wantKey[i], b.wantFound[i])
			}
		}
	case kContains:
		var res []sw.ContainsResult
		if b.st == zbBlocked {
			res, out.err = zs.bl.ContainsBatch(b.keys, b.origins)
		} else {
			res, out.err = zs.bu.ContainsBatch(b.keys, b.origins)
		}
		for i, f := range res {
			out.hops += int64(f.Hops)
			out.lat += f.Latency
			if f.Found != b.wantFound[i] {
				r.wrongf("%s(%d) = %v, want %v", name, b.keys[i], f.Found, b.wantFound[i])
			}
		}
	case kInsert, kDelete:
		var hops []int
		switch {
		case b.st == zbBlocked && b.kind == kInsert:
			hops, out.err = zs.bl.InsertBatch(b.keys, b.origins)
		case b.st == zbBlocked:
			hops, out.err = zs.bl.DeleteBatch(b.keys, b.origins)
		case b.kind == kInsert:
			hops, out.err = zs.bu.InsertBatch(b.keys, b.origins)
		default:
			hops, out.err = zs.bu.DeleteBatch(b.keys, b.origins)
		}
		for _, h := range hops {
			out.hops += int64(h)
		}
	}
	r.ops(name, len(b.keys), out.err)
	return out
}

func runZipfBatch(c runConfig) (*report, error) {
	// The whole workload runs at GOMAXPROCS=1: one generator issues one
	// batch at a time, and with a second P every batch's stripe
	// goroutines waited on the other vCPU waking, so the tail measured
	// the host (Blocked FloorBatch p99/p50 of 2.4, against 1.2 here).
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	r := newReport()
	in := genZipfBatch(c)
	var perStruct [2]float64
	var heapPerKey float64
	zs, setupS, err := setupReps(c.setupRuns(), func(zs *zbStructs) { zs.c.Close() }, func() (*zbStructs, time.Duration, error) {
		zs, took, hs, total, err := buildZipfBatch(in, c.seed)
		perStruct, heapPerKey = hs, total
		return zs, took, err
	})
	if err != nil {
		return nil, fmt.Errorf("zipf-batch setup: %w", err)
	}
	defer zs.c.Close()
	for s, name := range zbNames {
		r.set("heap."+name+"_bytes_per_key", perStruct[s], "B/key")
	}
	warm := newReport()
	for i := range in.warmup {
		if o := zs.runBatch(warm, &in.warmup[i]); o.err != nil {
			return nil, fmt.Errorf("zipf-batch warm-up: %w", o.err)
		}
	}
	r.wrong = append(r.wrong, warm.wrong...)

	tr := newTracer(c.trace, time.Now())
	var reads, writes latencies
	var rh, rn, wh, wn, lat int64
	var groups, runs, runOps int64
	heapNow()
	before := zs.c.Stats()
	gw := startGCWindow()
	ph := tr.open(0, lPhase, kNone)
	began := time.Now()
	for _, round := range in.rounds {
		for i := range round {
			b := &round[i]
			id := tr.open(ph, lDispatch, b.kind)
			t := time.Now()
			o := zs.runBatch(r, b)
			call := sample{at: int64(t.Sub(began)), d: int64(time.Since(t)), n: int32(len(b.keys))}
			tr.close(id)
			if o.err != nil {
				continue // counted as failed; no latency or hops to report
			}
			if b.kind == kFloor || b.kind == kContains {
				reads = append(reads, call)
				rh += o.hops
				rn += int64(len(b.keys))
				lat += o.lat
			} else {
				writes = append(writes, call)
				wh += o.hops
				wn += int64(len(b.keys))
			}
		}
	}
	elapsed := time.Since(began)
	tr.close(ph)
	gw.finish(r, rn+wn)
	after := zs.c.Stats()
	r.endToEnd(setupS, heapPerKey, elapsed, reads, writes, rh, rn, wh, wn)

	// Read-cache, bloom and dispatch counters of the timed phase.
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	tn, fp := after.BloomTrueNegatives-before.BloomTrueNegatives, after.BloomFalsePositives-before.BloomFalsePositives
	var contains int64
	for _, round := range in.rounds {
		for _, b := range round {
			if b.kind == kContains {
				contains += int64(len(b.keys))
			}
			groups += int64(distinctOrigins(b.origins))
			if b.kind == kInsert {
				n, ops := sortedRuns(b.keys, b.origins)
				runs += n
				runOps += ops
			}
		}
	}
	r.set("cache.hit_ratio", float64(hits)/float64(max64(hits+misses, 1)), "ratio")
	r.set("cache.invalidations_per_write", float64(after.CacheInvalidations-before.CacheInvalidations)/float64(max64(wn, 1)), "count/op")
	r.set("bloom.negative_ratio", float64(tn)/float64(max64(contains, 1)), "ratio")
	r.set("bloom.false_positive_ratio", float64(fp)/float64(max64(tn+fp, 1)), "ratio")
	r.set("sim.model_latency_per_read", float64(lat)/float64(max64(rn, 1)), "units")
	r.set("dispatch.ops_per_group", float64(rn+wn)/float64(max64(groups, 1)), "ops/group")
	r.set("dispatch.insert_run_len", float64(runOps)/float64(max64(runs, 1)), "ops/run")
	r.set("dispatch.workers_started", float64(zs.c.WorkersStarted()), "count")

	checkZipfFinal(r, zs, in)
	if err := writeSpans(c.outDir, "zipf-batch", tr); err != nil {
		return nil, err
	}
	if c.trace {
		hit, err := cacheHitNs(zs, in, tr)
		if err != nil {
			return nil, err
		}
		r.set("cache.hit_ns", hit, "ns")
		zs.c.Close()
		zs = nil
		if err := zipfLadder(r, in, c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func distinctOrigins(os []sw.HostID) int {
	seen := map[sw.HostID]bool{}
	for _, o := range os {
		seen[o] = true
	}
	return len(seen)
}

// sortedRuns counts the maximal stretches of consecutive ops that share
// an origin and carry ascending keys: the runs InsertBatch's sorted-run
// path can take (stripe boundaries may split them further).
func sortedRuns(keys []uint64, origins []sw.HostID) (runs, ops int64) {
	for i := range keys {
		if i == 0 || origins[i] != origins[i-1] || keys[i] <= keys[i-1] {
			runs++
		}
		ops++
	}
	return runs, ops
}

// checkZipfFinal compares both structures' key counts and membership
// of every expected key with the oracle's final set, and runs the
// cluster's consistency check. With the counts equal, finding every
// expected key means each structure holds exactly the expected set.
func checkZipfFinal(r *report, zs *zbStructs, in *zbInputs) {
	for st, name := range zbNames {
		var n int
		var res []sw.ContainsResult
		var err error
		if st == zbBlocked {
			n = zs.bl.Len()
			res, err = zs.bl.ContainsBatch(in.final, nil)
		} else {
			n = zs.bu.Len()
			res, err = zs.bu.ContainsBatch(in.final, nil)
		}
		if n != len(in.final) {
			r.wrongf("%s holds %d keys after the run, want %d", name, n, len(in.final))
		}
		if err != nil {
			r.wrongf("%s final membership: %v", name, err)
		}
		for i, f := range res {
			if !f.Found {
				r.wrongf("%s lost key %d", name, in.final[i])
				break
			}
		}
	}
	if err := zs.c.CheckConsistent(); err != nil {
		r.wrongf("CheckConsistent after the run: %v", err)
	}
}

// cacheHitNs times Blocked.Floor answered from the finger cache: per
// origin, a set of keys that fits its cache shard is queried once, then
// timed again, where every query must hit.
func cacheHitNs(zs *zbStructs, in *zbInputs, tr *tracer) (float64, error) {
	const perOrigin = 200
	var keys []uint64
	var origins []sw.HostID
	for o := 0; o < 10 && (o+1)*perOrigin <= len(in.final); o++ {
		for _, k := range in.final[o*perOrigin : (o+1)*perOrigin] {
			zs.bl.Floor(k, sw.HostID(o))
			keys = append(keys, k)
			origins = append(origins, sw.HostID(o))
		}
	}
	h0 := zs.c.Stats().CacheHits
	ns := timeEach(tr, lCache, kFloor, len(keys), func(i int) { zs.bl.Floor(keys[i], origins[i]) })
	if got := zs.c.Stats().CacheHits - h0; got != int64(len(keys)) {
		return 0, fmt.Errorf("zipf-batch ladder: %d of %d repeated floors hit the cache", got, len(keys))
	}
	return ns, nil
}

// zipfLadder replays the first rounds of the recorded batch stream down
// the ladder: batch calls against the same ops called synchronously,
// the BlockedWeb and BucketWeb engines under the same cost model, the
// ListLevel local search, and a sim.Op replay of the recorded host
// paths with and without the cost model.
func zipfLadder(r *report, in *zbInputs, c runConfig) error {
	// The timed phase's structures are garbage now; release them before
	// building the ladder's, so the two never share the heap.
	debug.FreeOSMemory()
	tr := newTracer(true, time.Now())
	rounds := in.rounds
	if n := c.scaled(zbLadderRounds, 50); len(rounds) > n {
		rounds = rounds[:n]
	}
	if err := dispatchCost(r, in, rounds, c.seed, tr); err != nil {
		return err
	}

	// Step 2: the engines, over their own network with the cost model.
	debug.FreeOSMemory()
	net := sim.NewNetwork(zbHosts)
	net.SetCostModel(twoLevel(c.seed))
	sp := splitStripes(in.initial, zbStripes, c.seed)
	target := len(in.initial)/zbHosts + 1
	bls := make([]*core.BlockedWeb, len(sp.parts))
	bus := make([]*core.BucketWeb, len(sp.parts))
	for i, part := range sp.parts {
		var err error
		if bls[i], err = core.NewBlockedWeb(net, part, core.BlockedConfig{Seed: sp.seeds[i]}); err != nil {
			return err
		}
		if bus[i], err = core.NewBucketWeb(net, part, target, 0, sp.seeds[i], 0); err != nil {
			return err
		}
	}
	var qNs [2]float64
	var qN [2]int64
	var insNs float64
	var insN int64
	var err error
	query := func(st uint8, q uint64, o sim.HostID) {
		for i := sp.of(q); ; i-- {
			var ok bool
			var e error
			if st == zbBlocked {
				_, ok, _, e = bls[i].QueryCost(q, o)
			} else {
				_, ok, _, e = bus[i].QueryCost(q, o)
			}
			if e != nil {
				err = e
			}
			if ok || i == 0 {
				return
			}
		}
	}
	for _, round := range rounds {
		for _, b := range round {
			id := tr.open(0, lEngine, b.kind)
			t := time.Now()
			for j, k := range b.keys {
				o := b.origins[j]
				switch {
				case b.kind == kFloor || b.kind == kContains:
					query(b.st, k, o)
				case b.st == zbBlocked && b.kind == kInsert:
					_, err = bls[sp.of(k)].Insert(k, o)
				case b.st == zbBlocked:
					_, err = bls[sp.of(k)].Delete(k, o)
				case b.kind == kInsert:
					_, err = bus[sp.of(k)].Insert(k, o)
				default:
					_, err = bus[sp.of(k)].Delete(k, o)
				}
			}
			d := float64(time.Since(t).Nanoseconds())
			tr.close(id)
			if err != nil {
				return err
			}
			switch {
			case b.kind == kFloor || b.kind == kContains:
				qNs[b.st] += d
				qN[b.st] += int64(len(b.keys))
			case b.kind == kInsert && b.st == zbBlocked:
				insNs += d
				insN += int64(len(b.keys))
			}
		}
	}
	r.set("core.blocked_query_ns", qNs[zbBlocked]/float64(max64(qN[zbBlocked], 1)), "ns")
	r.set("core.bucket_query_ns", qNs[zbBucketed]/float64(max64(qN[zbBucketed], 1)), "ns")
	r.set("core.blocked_insert_ns", insNs/float64(max64(insN, 1)), "ns")

	// Step 3: local search over the final key set.
	ll, err := core.NewListLevel(in.final)
	if err != nil {
		return err
	}
	var qs []uint64
	for _, round := range rounds {
		for _, b := range round {
			if b.kind == kFloor || b.kind == kContains {
				qs = append(qs, b.keys...)
			}
		}
	}
	var sink core.RangeID
	r.set("core.listlevel_locate_ns", timeEach(tr, lLocal, kFloor, len(qs), func(i int) { sink ^= ll.Locate(qs[i]) }), "ns")
	localSink += int64(sink)

	// Step 4: replay the blocked engine's host paths.
	var rec pathRecorder
	rec.install(net)
	for _, round := range rounds {
		for _, b := range round {
			if b.st == zbBlocked && (b.kind == kFloor || b.kind == kContains) {
				for j, k := range b.keys {
					query(zbBlocked, k, b.origins[j])
					rec.end(b.origins[j])
				}
			}
		}
	}
	net.SetDeliver(nil)
	r.set("sim.op_ns_per_msg", rec.replayOps(zbHosts, nil), "ns")
	r.set("sim.op_ns_per_msg_twolevel", rec.replayOps(zbHosts, twoLevel(c.seed)), "ns")
	return writeSpans(c.outDir, "zipf-batch-ladder", tr)
}

func writeIdx(kind uint8) int {
	if kind == kInsert || kind == kDelete {
		return 1
	}
	return 0
}

// dispatchCost is the batch call's wall time minus the same ops called
// synchronously, per op. Both run at GOMAXPROCS=1, so that parallel
// speed-up does not hide the dispatch cost, on one build without caches
// (so a repeated read sees the same state). Each read batch runs both
// ways back to back, the order alternating, and must cost the same
// messages both ways; write batches run batched in even rounds and op
// by op in odd ones, so the state follows the stream and every answer
// is checked against it.
func dispatchCost(r *report, in *zbInputs, rounds [][]zbBatch, seed uint64, tr *tracer) error {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	opts := zbOptions(seed)
	opts.CacheFingers, opts.NegativeBloom = false, false
	zs := &zbStructs{c: sw.NewCluster(zbHosts)}
	defer zs.c.Close()
	var err error
	if zs.bl, err = sw.NewBlocked(zs.c, in.initial, opts); err != nil {
		return err
	}
	if zs.bu, err = sw.NewBucketed(zs.c, in.initial, opts); err != nil {
		return err
	}
	chk := newReport()
	var batchNs, syncNs [2]float64 // [read, write]
	var nOps [2]int64
	var nSync int64 // writes run op by op
	timed := func(f func()) float64 {
		t := time.Now()
		f()
		return float64(time.Since(t).Nanoseconds())
	}
	for ri, round := range rounds {
		for i := range round {
			b := &round[i]
			w := writeIdx(b.kind)
			n := int64(len(b.keys))
			if w == 1 {
				// Writes change the state, so each runs once: batched in
				// even rounds, op by op in odd ones.
				if ri%2 == 0 {
					id := tr.open(0, lDispatch, b.kind)
					batchNs[w] += timed(func() { zs.runBatch(chk, b) })
					tr.close(id)
					nOps[w] += n
				} else {
					id := tr.open(0, lPublic, b.kind)
					syncNs[w] += timed(func() { zs.runSync(chk, b) })
					tr.close(id)
					nSync += n
				}
				continue
			}
			var bh, sh int64
			batched := func() {
				id := tr.open(0, lDispatch, b.kind)
				bh = zs.runBatch(chk, b).hops
				tr.close(id)
			}
			synced := func() {
				id := tr.open(0, lPublic, b.kind)
				sh = zs.runSync(chk, b)
				tr.close(id)
			}
			if (ri+i)%2 == 0 {
				batchNs[w] += timed(batched)
				syncNs[w] += timed(synced)
			} else {
				syncNs[w] += timed(synced)
				batchNs[w] += timed(batched)
			}
			if bh != sh {
				return fmt.Errorf("zipf-batch ladder: a read batch costs %d msgs batched but %d synchronously", bh, sh)
			}
			nOps[w] += n
		}
	}
	r.wrong = append(r.wrong, chk.wrong...)
	r.set("dispatch.read_ns_per_op", (batchNs[0]-syncNs[0])/float64(max64(nOps[0], 1)), "ns")
	r.set("dispatch.write_ns_per_op", batchNs[1]/float64(max64(nOps[1], 1))-syncNs[1]/float64(max64(nSync, 1)), "ns")
	return nil
}

// runSync runs a batch's ops one synchronous call at a time, in input
// order, checks the answers, and returns the batch's total hops.
func (zs *zbStructs) runSync(r *report, b *zbBatch) int64 {
	var hops int64
	name := zbOpName(b.st, b.kind)
	for i, k := range b.keys {
		o := b.origins[i]
		var h int
		var err error
		switch b.kind {
		case kFloor:
			var f sw.FloorResult
			if b.st == zbBlocked {
				f, err = zs.bl.Floor(k, o)
			} else {
				f, err = zs.bu.Floor(k, o)
			}
			h = f.Hops
			if !floorMatches(f.Key, f.Found, b.wantKey[i], b.wantFound[i]) {
				r.wrongf("%s(%d) = (%d, %v), want (%d, %v)", name, k, f.Key, f.Found, b.wantKey[i], b.wantFound[i])
			}
		case kContains:
			var found bool
			if b.st == zbBlocked {
				found, h, err = zs.bl.Contains(k, o)
			} else {
				found, h, err = zs.bu.Contains(k, o)
			}
			if found != b.wantFound[i] {
				r.wrongf("%s(%d) = %v, want %v", name, k, found, b.wantFound[i])
			}
		case kInsert:
			if b.st == zbBlocked {
				h, err = zs.bl.Insert(k, o)
			} else {
				h, err = zs.bu.Insert(k, o)
			}
		case kDelete:
			if b.st == zbBlocked {
				h, err = zs.bl.Delete(k, o)
			} else {
				h, err = zs.bu.Delete(k, o)
			}
		}
		if err != nil {
			r.wrongf("%s(%d) failed synchronously: %v", name, k, err)
		}
		hops += int64(h)
	}
	return hops
}
