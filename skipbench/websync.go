package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	sw "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/quadtree"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/trie"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// web-sync: two closed-loop clients make synchronous public calls on
// OneDim, Points (d=2) and Strings sharing one cluster, taking turns
// call by call on one P (see runWebSync). 90% reads
// (Floor, Locate, Search), half on keys stored for the whole run and
// half on keys never stored; 10% writes, inserts of fresh keys and
// deletes of keys the client itself may remove.
//
// Keys are drawn from disjoint classes so that no generated key can
// collide with another class: stored-at-start keys, fresh insert keys
// and never-stored query keys differ in their low two bits (one-
// dimensional keys and point x coordinates) or in their last letter
// (strings). A quarter of the initial items form the churn pool the
// clients delete from (split between them, plus each client's own
// inserts); the other three quarters are never deleted, so a query on
// them must always find them.

const (
	wsHosts   = 64
	wsClients = 2
	wsStripes = 4
	wsOneDim  = 50000
	wsPoints  = 20000
	wsStrings = 20000
	// wsRate is the nominal op rate sizing the timed phase.
	wsRate = 27000
	// wsLadderReads and wsLadderWrites cap the recorded one-dimensional
	// ops the traced ladder replays.
	wsLadderReads  = 40000
	wsLadderWrites = 6000
)

const (
	sOneDim = iota
	sPoints
	sStrings
)

var structNames = []string{"onedim", "points", "strings"}

// wsOp is one operation of a client's sequence; idx indexes the
// structure's item table (wsInputs.keys/points/strs), except that a
// one-dimensional floor query carries its key in q.
type wsOp struct {
	kind   uint8
	st     uint8
	idx    int32
	q      uint64
	origin sw.HostID
}

type wsInputs struct {
	keys   []uint64
	points []sw.Point
	strs   []string
	// n0 is the number of initial items per structure: items [0, n0)
	// of each table are stored at build time.
	n0 [3]int
	// stable marks initial items no op ever deletes.
	stable [3][]bool
	// final marks the items stored once every op has run (updates of
	// different clients touch disjoint items, so the order they
	// interleave in does not change the final set).
	final  [3][]bool
	ops    [wsClients][]wsOp
	warmup [wsClients][]wsOp
}

// itemGen draws distinct items of one structure by class.
type itemGen struct {
	rng  *xrand.Rand
	keys map[uint64]bool
	pts  map[[2]uint32]bool
	strs map[string]bool
}

func newItemGen(seed uint64) *itemGen {
	return &itemGen{rng: xrand.New(seed), keys: map[uint64]bool{}, pts: map[[2]uint32]bool{}, strs: map[string]bool{}}
}

func (g *itemGen) key(class uint64) uint64 {
	for {
		k := g.rng.Uint64n(1<<38)<<2 | class
		if !g.keys[k] {
			g.keys[k] = true
			return k
		}
	}
}

func (g *itemGen) point(class uint32) sw.Point {
	for {
		p := [2]uint32{uint32(g.rng.Uint64n(1<<18))<<2 | class, uint32(g.rng.Uint64n(1 << 20))}
		if !g.pts[p] {
			g.pts[p] = true
			return sw.Point{p[0], p[1]}
		}
	}
}

func (g *itemGen) str(class byte) string {
	const alpha = "acgt"
	for {
		n := 8 + g.rng.Intn(9)
		b := make([]byte, n)
		for i := range b[:n-1] {
			b[i] = alpha[g.rng.Intn(4)]
		}
		b[n-1] = class
		s := string(b)
		if !g.strs[s] {
			g.strs[s] = true
			return s
		}
	}
}

func genWebSync(c runConfig) *wsInputs {
	in := &wsInputs{}
	n0 := [3]int{c.scaled(wsOneDim, 64), c.scaled(wsPoints, 64), c.scaled(wsStrings, 64)}
	in.n0 = n0
	gens := [3]*itemGen{}
	for s := range gens {
		gens[s] = newItemGen(xrand.Substream(c.seed, 100+s))
	}
	// add appends a new item of class cls to structure s's table.
	add := func(s int, cls int) int32 {
		switch s {
		case sOneDim:
			in.keys = append(in.keys, gens[s].key(uint64(cls)))
			return int32(len(in.keys) - 1)
		case sPoints:
			in.points = append(in.points, gens[s].point(uint32(cls)))
			return int32(len(in.points) - 1)
		default:
			in.strs = append(in.strs, gens[s].str("acg"[cls]))
			return int32(len(in.strs) - 1)
		}
	}
	const (
		clsInitial = 0
		clsFresh   = 1
		clsAbsent  = 2
	)
	var stableIdx [3][]int32
	var absentIdx [3][]int32
	var own [3][wsClients][]int32 // items each client may delete
	for s := 0; s < 3; s++ {
		for i := 0; i < n0[s]; i++ {
			add(s, clsInitial)
		}
		in.stable[s] = make([]bool, n0[s])
		for i := 0; i < n0[s]; i++ {
			if i%4 == 3 {
				own[s][(i/4)%wsClients] = append(own[s][(i/4)%wsClients], int32(i))
			} else {
				in.stable[s][i] = true
				stableIdx[s] = append(stableIdx[s], int32(i))
			}
		}
		for i := 0; i < 4096 && (s != sOneDim); i++ {
			absentIdx[s] = append(absentIdx[s], add(s, clsAbsent))
		}
	}
	present := [3]map[int32]bool{{}, {}, {}}
	total := c.timedOps(wsRate, 4000)
	for cl := 0; cl < wsClients; cl++ {
		crng := xrand.New(xrand.Substream(c.seed, cl))
		read := func(s int) wsOp {
			op := wsOp{st: uint8(s), origin: sw.HostID(crng.Intn(wsHosts))}
			stableHit := crng.Bool()
			switch s {
			case sOneDim:
				op.kind = kFloor
				if stableHit {
					op.q = in.keys[stableIdx[s][crng.Intn(len(stableIdx[s]))]]
				} else {
					op.q = crng.Uint64n(1 << 40)
				}
				return op
			case sPoints:
				op.kind = kLocate
			default:
				op.kind = kSearch
			}
			if stableHit {
				op.idx = stableIdx[s][crng.Intn(len(stableIdx[s]))]
			} else {
				op.idx = absentIdx[s][crng.Intn(len(absentIdx[s]))]
			}
			return op
		}
		for i := 0; i < total/wsClients; i++ {
			s := crng.Intn(3)
			if crng.Intn(10) != 0 {
				in.ops[cl] = append(in.ops[cl], read(s))
				continue
			}
			op := wsOp{st: uint8(s), origin: sw.HostID(crng.Intn(wsHosts))}
			pool := own[s][cl]
			if crng.Bool() || len(pool) == 0 {
				op.kind = kInsert
				op.idx = add(s, clsFresh)
				own[s][cl] = append(pool, op.idx)
				present[s][op.idx] = true
			} else {
				op.kind = kDelete
				j := crng.Intn(len(pool))
				op.idx = pool[j]
				pool[j] = pool[len(pool)-1]
				own[s][cl] = pool[:len(pool)-1]
				present[s][op.idx] = false
			}
			in.ops[cl] = append(in.ops[cl], op)
		}
		for i := 0; i < c.scaled(3000, 50); i++ {
			in.warmup[cl] = append(in.warmup[cl], read(crng.Intn(3)))
		}
	}
	sizes := [3]int{len(in.keys), len(in.points), len(in.strs)}
	for s := 0; s < 3; s++ {
		in.final[s] = make([]bool, sizes[s])
		for i := 0; i < n0[s]; i++ {
			in.final[s][i] = true
		}
		for idx, on := range present[s] {
			in.final[s][idx] = on
		}
	}
	return in
}

// wsStructs is one built web-sync cluster.
type wsStructs struct {
	c   *sw.Cluster
	od  *sw.OneDim
	pt  *sw.Points
	str *sw.Strings
}

// buildWebSync builds the three structures on one cluster, timing only
// the constructors, and reports the live heap each one added.
func buildWebSync(in *wsInputs, seed uint64) (*wsStructs, time.Duration, [3]float64, float64, error) {
	var heap [3]float64
	opts := sw.Options{Seed: seed, WriteStripes: wsStripes}
	ws := &wsStructs{c: sw.NewCluster(wsHosts)}
	h0 := heapNow()
	hPrev := h0
	var took time.Duration
	var err error
	step := func(s int, build func() error) {
		if err != nil {
			return
		}
		t := time.Now()
		err = build()
		took += time.Since(t)
		h := heapNow()
		heap[s] = heapDelta(hPrev, h, in.n0[s])
		hPrev = h
	}
	step(sOneDim, func() (e error) { ws.od, e = sw.NewOneDim(ws.c, in.keys[:in.n0[sOneDim]], opts); return })
	step(sPoints, func() (e error) { ws.pt, e = sw.NewPoints(ws.c, 2, in.points[:in.n0[sPoints]], opts); return })
	step(sStrings, func() (e error) { ws.str, e = sw.NewStrings(ws.c, in.strs[:in.n0[sStrings]], opts); return })
	total := heapDelta(h0, hPrev, in.n0[0]+in.n0[1]+in.n0[2])
	return ws, took, heap, total, err
}

// wsResult is one op's recorded outcome.
type wsResult struct {
	key  uint64 // floor answer
	ok   bool   // floor found / point at a leaf equal to the query / exact string
	bad  bool   // a string locus that is not a prefix of the query
	err  bool
	hops int32
	// at and lat are when the call started, in ns since the timed
	// phase began, and how long it took.
	at, lat int64
}

// doWS runs one op against the public API.
func doWS(ws *wsStructs, in *wsInputs, op wsOp) (wsResult, error) {
	var r wsResult
	var err error
	switch op.kind {
	case kFloor:
		var f sw.FloorResult
		f, err = ws.od.Floor(op.q, op.origin)
		r.key, r.ok, r.hops = f.Key, f.Found, int32(f.Hops)
	case kLocate:
		var l sw.PointLocation
		q := in.points[op.idx]
		l, err = ws.pt.Locate(q, op.origin)
		r.ok = l.Leaf && l.LeafPoint[0] == q[0] && l.LeafPoint[1] == q[1]
		r.hops = int32(l.Hops)
	case kSearch:
		var l sw.StringLocation
		q := in.strs[op.idx]
		l, err = ws.str.Search(q, op.origin)
		r.ok, r.bad, r.hops = l.Exact, !strings.HasPrefix(q, l.Locus), int32(l.Hops)
	case kInsert, kDelete:
		var h int
		h, err = wsUpdate(ws, in, op)
		r.hops = int32(h)
	}
	r.err = err != nil
	return r, err
}

func wsUpdate(ws *wsStructs, in *wsInputs, op wsOp) (int, error) {
	ins := op.kind == kInsert
	switch op.st {
	case sOneDim:
		if ins {
			return ws.od.Insert(in.keys[op.idx], op.origin)
		}
		return ws.od.Delete(in.keys[op.idx], op.origin)
	case sPoints:
		if ins {
			return ws.pt.Insert(in.points[op.idx], op.origin)
		}
		return ws.pt.Delete(in.points[op.idx], op.origin)
	default:
		if ins {
			return ws.str.Insert(in.strs[op.idx], op.origin)
		}
		return ws.str.Delete(in.strs[op.idx], op.origin)
	}
}

func runWebSync(c runConfig) (*report, error) {
	// The whole workload runs at GOMAXPROCS=1, and each client yields
	// after every timed call, so the clients take turns call by call and
	// a call runs from start to end on the one P. With two Ps a call
	// that met the other client's stripe lock waited for the other vCPU
	// to wake, and the tails measured the host: write_p99_us read
	// 430-2 240 us over runs whose write_p50_us held at 167-178 us.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	r := newReport()
	in := genWebSync(c)
	var perStruct [3]float64
	var heapPerKey float64
	ws, setupS, err := setupReps(c.setupRuns(), func(*wsStructs) {}, func() (*wsStructs, time.Duration, error) {
		ws, took, hs, total, err := buildWebSync(in, c.seed)
		perStruct, heapPerKey = hs, total
		return ws, took, err
	})
	if err != nil {
		return nil, fmt.Errorf("web-sync setup: %w", err)
	}
	for s, name := range structNames {
		r.set("heap."+name+"_bytes_per_key", perStruct[s], "B/key")
	}

	// Untimed warm-up (reads only, so the stored sets do not move).
	var wg sync.WaitGroup
	for cl := 0; cl < wsClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for _, op := range in.warmup[cl] {
				doWS(ws, in, op)
			}
		}(cl)
	}
	wg.Wait()

	t0 := time.Now()
	trs := make([]*tracer, wsClients)
	for cl := range trs {
		trs[cl] = newTracer(c.trace, t0)
	}
	results := [wsClients][]wsResult{}
	for cl := range results {
		results[cl] = make([]wsResult, len(in.ops[cl]))
	}
	heapNow()
	gw := startGCWindow()
	start := make(chan struct{})
	var began time.Time // set before start is closed
	for cl := 0; cl < wsClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			tr, res := trs[cl], results[cl]
			ph := tr.open(0, lPhase, kNone)
			<-start
			for i, op := range in.ops[cl] {
				id := tr.open(ph, lPublic, op.kind)
				t := time.Now()
				res[i], _ = doWS(ws, in, op)
				res[i].at, res[i].lat = int64(t.Sub(began)), int64(time.Since(t))
				tr.close(id)
				runtime.Gosched()
			}
			tr.close(ph)
		}(cl)
	}
	began = time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(began)
	totalOps := int64(len(in.ops[0]) + len(in.ops[1]))
	gw.finish(r, totalOps)

	var reads, writes latencies
	var rh, rn, wh, wn int64
	var structHops, structReads [3]int64
	for cl := 0; cl < wsClients; cl++ {
		for i, op := range in.ops[cl] {
			res := results[cl][i]
			var e error
			if res.err {
				e = fmt.Errorf("client %d op %d", cl, i)
			}
			r.op(opName(op), e)
			if res.err {
				continue // counted as failed; no latency or hops to report
			}
			if op.kind == kInsert || op.kind == kDelete {
				writes = append(writes, sample{at: res.at, d: res.lat, n: 1})
				wh += int64(res.hops)
				wn++
				continue
			}
			reads = append(reads, sample{at: res.at, d: res.lat, n: 1})
			rh += int64(res.hops)
			rn++
			structHops[op.st] += int64(res.hops)
			structReads[op.st]++
		}
	}
	r.endToEnd(setupS, heapPerKey, elapsed, reads, writes, rh, rn, wh, wn)
	for s, name := range structNames {
		r.set("core."+name+"_msgs_per_query", float64(structHops[s])/float64(max64(structReads[s], 1)), "msgs/op")
	}
	checkWebSyncOps(r, in, results)
	checkWebSyncFinal(r, ws, in)
	if err := writeSpans(c.outDir, "web-sync", trs...); err != nil {
		return nil, err
	}
	if c.trace {
		ws = nil
		if err := webSyncLadder(r, in, c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func opName(op wsOp) string {
	return structNames[op.st] + "." + kindNames[op.kind]
}

// checkWebSyncOps and checkWebSyncFinal hold every answer to the
// oracles, which are computed from the generated inputs alone:
//   - a floor answer was stored at some point, is <= q, and no key
//     stored for the whole run lies strictly between it and q (a
//     property that holds whatever the concurrent writers did);
//   - a query on a key stored for the whole run finds it, a query on a
//     never-stored key does not, and a string locus prefixes its query;
//   - once the run is over, the stored sets equal the expected final
//     sets and the cluster's consistency check passes.
func checkWebSyncOps(r *report, in *wsInputs, results [wsClients][]wsResult) {
	n0 := in.n0[sOneDim]
	ever := append([]uint64(nil), in.keys...)
	stable := make([]uint64, 0, n0)
	for i := 0; i < n0; i++ {
		if in.stable[sOneDim][i] {
			stable = append(stable, in.keys[i])
		}
	}
	sort.Slice(ever, func(i, j int) bool { return ever[i] < ever[j] })
	sort.Slice(stable, func(i, j int) bool { return stable[i] < stable[j] })
	for cl := 0; cl < wsClients; cl++ {
		for i, op := range in.ops[cl] {
			res := results[cl][i]
			if res.err {
				continue
			}
			switch op.kind {
			case kFloor:
				s, hasStable := floorOf(stable, op.q)
				if !res.ok {
					if hasStable {
						r.wrongf("onedim floor(%d) found nothing, but %d was stored throughout", op.q, s)
					}
					continue
				}
				if e, ok := floorOf(ever, res.key); !ok || e != res.key {
					r.wrongf("onedim floor(%d) = %d, a key never stored", op.q, res.key)
				} else if res.key > op.q || (hasStable && res.key < s) {
					r.wrongf("onedim floor(%d) = %d, but stored-throughout key %d lies between", op.q, res.key, s)
				}
			case kLocate, kSearch:
				want := int(op.idx) < in.n0[op.st]
				if res.ok != want {
					r.wrongf("%s query on item %d: found=%v, want %v", structNames[op.st], op.idx, res.ok, want)
				}
				if res.bad {
					r.wrongf("strings search %q: locus is not a prefix", in.strs[op.idx])
				}
			}
		}
	}
}

func checkWebSyncFinal(r *report, ws *wsStructs, in *wsInputs) {
	var want []uint64
	for i, on := range in.final[sOneDim] {
		if on {
			want = append(want, in.keys[i])
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := ws.od.Keys()
	if len(got) != len(want) {
		r.wrongf("onedim holds %d keys after the run, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				r.wrongf("onedim key %d after the run is %d, want %d", i, got[i], want[i])
				break
			}
		}
	}
	for s, lenOf := range map[int]func() int{sPoints: ws.pt.Len, sStrings: ws.str.Len} {
		n := 0
		for idx, on := range in.final[s] {
			if !on {
				continue
			}
			n++
			var found bool
			var err error
			if s == sPoints {
				found, _, err = ws.pt.Contains(in.points[idx], 0)
			} else {
				found, _, err = ws.str.Contains(in.strs[idx], 0)
			}
			if err != nil || !found {
				r.wrongf("%s item %d missing after the run (err %v)", structNames[s], idx, err)
			}
		}
		if lenOf() != n {
			r.wrongf("%s holds %d items after the run, want %d", structNames[s], lenOf(), n)
		}
	}
	if err := ws.c.CheckConsistent(); err != nil {
		r.wrongf("CheckConsistent after the run: %v", err)
	}
}

// webSyncLadder replays the recorded one-dimensional stream down the
// layer ladder: the public OneDim, the four core.Web engines it stripes
// over (same keys, same seeds, own sim.Network), the ListLevel local
// search, and a sim.Op replay of the recorded host paths. Points and
// strings add their local search. Writes run first, in one goroutine,
// so the public and engine steps see the same states and their hop
// counts must agree op for op.
func webSyncLadder(r *report, in *wsInputs, c runConfig) error {
	// The timed phase's structures are garbage now; release them before
	// building the ladder's, so the two never share the heap.
	debug.FreeOSMemory()
	tr := newTracer(true, time.Now())
	var writes, reads []wsOp
	for cl := 0; cl < wsClients; cl++ {
		for _, op := range in.ops[cl] {
			if op.st != sOneDim {
				continue
			}
			if op.kind == kFloor {
				reads = append(reads, op)
			} else {
				writes = append(writes, op)
			}
		}
	}
	if n := c.scaled(wsLadderReads, 100); len(reads) > n {
		reads = reads[:n]
	}
	if n := c.scaled(wsLadderWrites, 20); len(writes) > n {
		writes = writes[:n]
	}
	initial := in.keys[:in.n0[sOneDim]]

	// Step 1: the public call, timed over three passes (median kept).
	var err error
	pubHops := make([]int, 0, len(writes)+len(reads))
	var finalKeys []uint64
	{
		pc := sw.NewCluster(wsHosts)
		od, e := sw.NewOneDim(pc, initial, sw.Options{Seed: c.seed, WriteStripes: wsStripes})
		if e != nil {
			return e
		}
		timeEach(tr, lPublic, kInsert, len(writes), func(i int) {
			op := writes[i]
			var h int
			var e error
			if op.kind == kInsert {
				h, e = od.Insert(in.keys[op.idx], op.origin)
			} else {
				h, e = od.Delete(in.keys[op.idx], op.origin)
			}
			if e != nil {
				err = e
			}
			pubHops = append(pubHops, h)
		})
		timeEach(tr, lPublic, kFloor, len(reads), func(i int) {
			f, e := od.Floor(reads[i].q, reads[i].origin)
			if e != nil {
				err = e
			}
			pubHops = append(pubHops, f.Hops)
		})
		finalKeys = od.Keys()
	}
	if err != nil {
		return err
	}

	// Step 2: the engines.
	net := sim.NewNetwork(wsHosts)
	sp := splitStripes(initial, wsStripes, c.seed)
	webs := make([]*core.Web[*core.ListLevel, uint64, uint64], len(sp.parts))
	for i, part := range sp.parts {
		webs[i], err = core.NewWeb[*core.ListLevel, uint64, uint64](core.NewListOps(), net, part, core.Config{Seed: sp.seeds[i]})
		if err != nil {
			return err
		}
	}
	engHops := make([]int, 0, len(pubHops))
	var insNs, delNs float64
	var nIns, nDel int
	for _, op := range writes {
		k := in.keys[op.idx]
		w := webs[sp.of(k)]
		id := tr.open(0, lEngine, op.kind)
		t := time.Now()
		var h int
		if op.kind == kInsert {
			h, err = w.Insert(k, op.origin)
			insNs += float64(time.Since(t).Nanoseconds())
			nIns++
		} else {
			h, err = w.Delete(k, op.origin)
			delNs += float64(time.Since(t).Nanoseconds())
			nDel++
		}
		tr.close(id)
		if err != nil {
			return err
		}
		engHops = append(engHops, h)
	}
	engFloor := func(q uint64, origin sim.HostID) (uint64, bool, int) {
		hops := 0
		for i := sp.of(q); ; i-- {
			res, e := webs[i].Query(q, origin)
			if e != nil {
				err = e
			}
			hops += res.Hops
			g := webs[i].GroundStructure()
			if !g.IsHead(res.Range) {
				return g.Key(res.Range), true, hops
			}
			if i == 0 {
				return 0, false, hops
			}
		}
	}
	var engNs []float64
	for pass := 0; pass < 3; pass++ {
		engNs = append(engNs, timeEach(tr, lEngine, kFloor, len(reads), func(i int) {
			_, _, h := engFloor(reads[i].q, reads[i].origin)
			if pass == 0 {
				engHops = append(engHops, h)
			}
		}))
	}
	if err != nil {
		return err
	}
	for i := range pubHops {
		if pubHops[i] != engHops[i] {
			return fmt.Errorf("web-sync ladder: op %d costs %d msgs on the public path but %d on the engine", i, pubHops[i], engHops[i])
		}
	}
	r.set("core.web_query_ns", median(engNs), "ns")
	r.set("core.web_insert_ns", insNs/float64(max64(int64(nIns), 1)), "ns")
	r.set("core.web_delete_ns", delNs/float64(max64(int64(nDel), 1)), "ns")
	ov, err := stripeOverhead(initial, reads, c.seed, tr)
	if err != nil {
		return err
	}
	r.set("skipwebs.stripe_overhead_ns", ov, "ns")

	// Step 3: local search over the final sets.
	ll, err := core.NewListLevel(finalKeys)
	if err != nil {
		return err
	}
	var sinkR core.RangeID
	r.set("core.listlevel_locate_ns", timeEach(tr, lLocal, kFloor, len(reads), func(i int) { sinkR ^= ll.Locate(reads[i].q) }), "ns")
	var pts []quadtree.Point
	var strs []string
	for i, on := range in.final[sPoints] {
		if on {
			pts = append(pts, quadtree.Point(in.points[i]))
		}
	}
	for i, on := range in.final[sStrings] {
		if on {
			strs = append(strs, in.strs[i])
		}
	}
	qt, err := quadtree.Build(2, pts)
	if err != nil {
		return err
	}
	tt, err := trie.Build(strs)
	if err != nil {
		return err
	}
	var codes []uint64
	var sq []string
	for cl := 0; cl < wsClients; cl++ {
		for _, op := range in.ops[cl] {
			switch op.kind {
			case kLocate:
				code, e := qt.Code(quadtree.Point(in.points[op.idx]))
				if e != nil {
					return e
				}
				codes = append(codes, code)
			case kSearch:
				sq = append(sq, in.strs[op.idx])
			}
		}
	}
	var sinkQ quadtree.NodeID
	var sinkT trie.NodeID
	r.set("quadtree.locate_ns", timeEach(tr, lLocal, kLocate, len(codes), func(i int) { id, _ := qt.Locate(codes[i]); sinkQ ^= id }), "ns")
	r.set("trie.locate_ns", timeEach(tr, lLocal, kSearch, len(sq), func(i int) { id, _ := tt.Locate(sq[i]); sinkT ^= id }), "ns")
	localSink = int64(sinkR) + int64(sinkQ) + int64(sinkT)

	// Step 4: the accounting replay of the recorded host paths.
	var rec pathRecorder
	rec.install(net)
	for _, op := range reads {
		engFloor(op.q, op.origin)
		rec.end(op.origin)
	}
	net.SetDeliver(nil)
	r.set("sim.op_ns_per_msg", rec.replayOps(wsHosts, nil), "ns")
	r.set("sim.op_ns_per_msg_twolevel", rec.replayOps(wsHosts, twoLevel(c.seed)), "ns")
	return writeSpans(c.outDir, "web-sync-ladder", tr)
}

var localSink int64

// stripeOverhead is the public OneDim.Floor minus the engine floor it
// stripes over, on the same query stream. The difference is tens of ns
// against queries of microseconds, and two copies of a large structure
// differ by more than that in memory layout alone, so both sides are
// built over the first 1024 initial keys, small enough to stay in
// cache, and each query is timed on both sides back to back (the order
// alternating); the median of the paired differences is reported.
func stripeOverhead(initial []uint64, reads []wsOp, seed uint64, tr *tracer) (float64, error) {
	keys := initial
	if len(keys) > 1024 {
		keys = keys[:1024]
	}
	od, err := sw.NewOneDim(sw.NewCluster(wsHosts), keys, sw.Options{Seed: seed, WriteStripes: wsStripes})
	if err != nil {
		return 0, err
	}
	net := sim.NewNetwork(wsHosts)
	sp := splitStripes(keys, wsStripes, seed)
	webs := make([]*core.Web[*core.ListLevel, uint64, uint64], len(sp.parts))
	for i, part := range sp.parts {
		if webs[i], err = core.NewWeb[*core.ListLevel, uint64, uint64](core.NewListOps(), net, part, core.Config{Seed: sp.seeds[i]}); err != nil {
			return 0, err
		}
	}
	var pubHops, engHops int
	pub := func(i int) {
		f, e := od.Floor(reads[i].q, reads[i].origin)
		if e != nil {
			err = e
		}
		pubHops += f.Hops
	}
	eng := func(i int) {
		q, o := reads[i].q, reads[i].origin
		for s := sp.of(q); ; s-- {
			res, e := webs[s].Query(q, o)
			if e != nil {
				err = e
			}
			engHops += res.Hops
			if !webs[s].GroundStructure().IsHead(res.Range) || s == 0 {
				return
			}
		}
	}
	var diffs []float64
	ph := tr.open(0, lPhase, kFloor)
	for pass := 0; pass < 3; pass++ {
		for i := range reads {
			first, second := pub, eng
			if i%2 == 1 {
				first, second = eng, pub
			}
			t0 := time.Now()
			first(i)
			t1 := time.Now()
			second(i)
			d := float64(t1.Sub(t0) - time.Since(t1))
			if i%2 == 1 {
				d = -d
			}
			diffs = append(diffs, d)
		}
	}
	tr.close(ph)
	if err == nil && pubHops != engHops {
		err = fmt.Errorf("web-sync ladder: small copies cost %d msgs public, %d engine", pubHops, engHops)
	}
	return median(diffs), err
}
