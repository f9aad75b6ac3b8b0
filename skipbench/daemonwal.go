package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/serve"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/wire"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// daemon-wal: a handful of in-process serve daemons, each holding a
// full replica of the blocked structure, on loopback TCP, each with a
// write-ahead log in the run's directory on disk. One closed-loop
// client with one connection per daemon replays 80% floors, 10%
// inserts of fresh keys and 10% deletes of stored keys. A floor goes to
// its origin daemon, whose charged messages travel as real hop frames;
// an update goes to every daemon in host order, and each acks only
// after its WAL fsync.

const (
	dwDaemons = 4
	dwKeys    = 180000
	// dwRate is the nominal op rate sizing the timed phase.
	dwRate      = 750
	dwWarmup    = 300
	dwLadderOps = 2000
)

type dwOp struct {
	kind   uint8 // kFloor, kInsert, kDelete
	key    uint64
	origin int
	// want is the expected floor answer.
	wantKey   uint64
	wantFound bool
}

type dwInputs struct {
	cfg    serve.Config
	ops    []dwOp
	warmup []dwOp
	final  []uint64
}

func genDaemonWAL(c runConfig) *dwInputs {
	cfg := serve.Config{Hosts: dwDaemons, Structure: "blocked", Keys: c.scaled(dwKeys, 256),
		KeySeed: c.seed, Seed: c.seed}
	initial := cfg.InitialKeys()
	n := c.timedOps(dwRate, 1200)
	rng := xrand.New(xrand.Substream(c.seed, 300))
	taken := make(map[uint64]bool, len(initial)+n)
	for _, k := range initial {
		taken[k] = true
	}
	// Draw the op kinds first so the fresh keys are known up front.
	kinds := make([]uint8, n)
	var fresh []uint64
	for i := range kinds {
		switch r := rng.Intn(10); {
		case r < 8:
			kinds[i] = kFloor
		case r == 8:
			kinds[i] = kInsert
			for {
				k := rng.Uint64n(1 << 40)
				if !taken[k] {
					taken[k] = true
					fresh = append(fresh, k)
					break
				}
			}
		default:
			kinds[i] = kDelete
		}
	}
	u := newKeyUniverse(initial, fresh)
	present := append([]uint64(nil), initial...)
	in := &dwInputs{cfg: cfg}
	floor := func() dwOp {
		op := dwOp{kind: kFloor, key: rng.Uint64n(1 << 40), origin: rng.Intn(dwDaemons)}
		op.wantKey, op.wantFound = u.floor(op.key)
		return op
	}
	for i := 0; i < dwWarmup; i++ {
		in.warmup = append(in.warmup, floor())
	}
	nextFresh := 0
	for _, kind := range kinds {
		switch kind {
		case kFloor:
			in.ops = append(in.ops, floor())
		case kInsert:
			k := fresh[nextFresh]
			nextFresh++
			u.set(k, true)
			present = append(present, k)
			in.ops = append(in.ops, dwOp{kind: kInsert, key: k, origin: rng.Intn(dwDaemons)})
		case kDelete:
			j := rng.Intn(len(present))
			k := present[j]
			present[j] = present[len(present)-1]
			present = present[:len(present)-1]
			u.set(k, false)
			in.ops = append(in.ops, dwOp{kind: kDelete, key: k, origin: rng.Intn(dwDaemons)})
		}
	}
	in.final = u.live()
	return in
}

// keyDigest is the daemons' key-set digest, computed here from the
// expected key set alone: FNV-1a over the sorted keys, big-endian.
func keyDigest(sorted []uint64) serve.DigestReply {
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range sorted {
		binary.BigEndian.PutUint64(buf[:], k)
		h.Write(buf[:])
	}
	return serve.DigestReply{N: len(sorted), Sum: h.Sum64()}
}

type dwCluster struct {
	daemons []*serve.Daemon
	clients []*wire.Client
	walDir  string
}

func (d *dwCluster) close() {
	if d != nil {
		serve.CloseLocal(d.daemons, d.clients)
	}
}

var updateNames = map[uint8]string{kInsert: "insert", kDelete: "delete"}

// floorRPC sends one floor to its origin daemon and checks the answer.
func (d *dwCluster) floorRPC(r *report, op dwOp) (int, error) {
	var fr serve.FloorReply
	err := d.clients[op.origin].Call("floor", serve.FloorArgs{Q: op.key, Origin: op.origin}, &fr)
	if err == nil && !floorMatches(fr.Key, fr.Ok, op.wantKey, op.wantFound) {
		r.wrongf("floor(%d) at daemon %d = (%d, %v), want (%d, %v)", op.key, op.origin, fr.Key, fr.Ok, op.wantKey, op.wantFound)
	}
	return fr.Hops, err
}

// updateRPC applies one update on every daemon in host order, charges
// emitted only at the origin, and returns the origin's hop count.
func (d *dwCluster) updateRPC(op dwOp) (int, error) {
	hops := 0
	for h, cl := range d.clients {
		var ur serve.UpdateReply
		args := serve.UpdateArgs{Op: updateNames[op.kind], Key: op.key, Origin: op.origin, Emit: h == op.origin}
		if err := cl.Call("update", args, &ur); err != nil {
			return 0, fmt.Errorf("%s(%d) at daemon %d: %w", args.Op, op.key, h, err)
		}
		if h == op.origin {
			hops = ur.Hops
		}
	}
	return hops, nil
}

func runDaemonWAL(c runConfig) (*report, error) {
	r := newReport()
	in := genDaemonWAL(c)
	stored := in.cfg.Keys * dwDaemons
	var heapPerKey float64
	boot := 0
	dc, setupS, err := setupReps(c.setupRuns(), (*dwCluster).close, func() (*dwCluster, time.Duration, error) {
		cfg := in.cfg
		cfg.WALDir = filepath.Join(c.walDir, fmt.Sprintf("%s-boot-%d", filepath.Base(c.outDir), boot))
		boot++
		h0 := heapNow()
		t := time.Now()
		daemons, clients, err := serve.BootLocal(cfg)
		took := time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		heapPerKey = heapDelta(h0, heapNow(), stored)
		return &dwCluster{daemons: daemons, clients: clients, walDir: cfg.WALDir}, took, nil
	})
	if err != nil {
		return nil, fmt.Errorf("daemon-wal setup: %w", err)
	}
	defer dc.close()
	r.set("heap.blocked_bytes_per_key", heapPerKey, "B/key")
	for _, op := range in.warmup {
		if _, err := dc.floorRPC(r, op); err != nil {
			return nil, fmt.Errorf("daemon-wal warm-up: %w", err)
		}
	}

	tr := newTracer(c.trace, time.Now())
	var reads, writes latencies
	var rh, rn, wh, wn int64
	opHops := make([]int32, len(in.ops))
	heapNow()
	gw := startGCWindow()
	ph := tr.open(0, lPhase, kNone)
	began := time.Now()
	for i, op := range in.ops {
		id := tr.open(ph, lRPC, op.kind)
		t := time.Now()
		var h int
		var err error
		if op.kind == kFloor {
			h, err = dc.floorRPC(r, op)
		} else {
			h, err = dc.updateRPC(op)
		}
		call := sample{at: int64(t.Sub(began)), d: int64(time.Since(t)), n: 1}
		tr.close(id)
		opHops[i] = int32(h)
		r.op(kindNames[op.kind], err)
		if err != nil {
			continue // counted as failed; no latency or hops to report
		}
		if op.kind == kFloor {
			reads = append(reads, call)
			rh += int64(h)
			rn++
		} else {
			writes = append(writes, call)
			wh += int64(h)
			wn++
		}
	}
	elapsed := time.Since(began)
	tr.close(ph)
	gw.finish(r, rn+wn)
	r.endToEnd(setupS, heapPerKey, elapsed, reads, writes, rh, rn, wh, wn)
	r.set("serve.rpcs_per_write", float64(dwDaemons), "rpcs/op")

	// Every daemon's digest must equal the one computed from the op
	// stream alone.
	want := keyDigest(in.final)
	var digestNs []float64
	for pass := 0; pass < 5; pass++ {
		for h, cl := range dc.clients {
			var got serve.DigestReply
			id := tr.open(0, lDigest, kNone)
			t := time.Now()
			err := cl.Call("digest", nil, &got)
			digestNs = append(digestNs, float64(time.Since(t).Nanoseconds()))
			tr.close(id)
			if err != nil {
				return nil, fmt.Errorf("digest of daemon %d: %w", h, err)
			}
			if got != want {
				r.wrongf("daemon %d digest %+v, want %+v", h, got, want)
			}
		}
	}
	r.set("serve.digest_us", median(digestNs)/1e3, "us")
	recs, err := countWALRecords(dc.walDir)
	if err != nil {
		return nil, err
	}
	r.set("wal.records_per_write", float64(recs)/float64(max64(wn, 1)), "records/op")
	if c.trace {
		if err := daemonLadder(r, in, opHops, dc, c, tr); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(c.outDir, "daemon-wal", tr); err != nil {
		return nil, err
	}
	return r, nil
}

// countWALRecords counts the record lines across every daemon's log.
func countWALRecords(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "host-*.wal"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			if len(sc.Bytes()) > 0 {
				n++
			}
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// daemonLadder measures the socket, daemon and WAL layers under the
// daemons' floors: the frames a read sends (which must equal its hop
// count), an RPC round trip, one hop frame, one WAL append with fsync,
// and the engines the daemons run, replayed in process.
func daemonLadder(r *report, in *dwInputs, opHops []int32, dc *dwCluster, c runConfig, tr *tracer) error {
	var floors []dwOp
	for _, op := range in.ops {
		if op.kind == kFloor && len(floors) < c.scaled(dwLadderOps, 100) {
			floors = append(floors, op)
		}
	}
	// Frames per read: daemon message counters around a read-only replay.
	frames := func() (int64, error) {
		var sum int64
		for h, cl := range dc.clients {
			var sr serve.StatsReply
			if err := cl.Call("stats", nil, &sr); err != nil {
				return 0, fmt.Errorf("stats of daemon %d: %w", h, err)
			}
			sum += sr.Msgs
		}
		return sum, nil
	}
	f0, err := frames()
	if err != nil {
		return err
	}
	var hops int64
	for _, op := range floors {
		// The stream's expected answers hold for the final key set only
		// when no update came between; recheck against the final set.
		q := op
		q.wantKey, q.wantFound = floorOf(in.final, op.key)
		h, err := dc.floorRPC(r, q)
		if err != nil {
			return err
		}
		hops += int64(h)
	}
	f1, err := frames()
	if err != nil {
		return err
	}
	if f1-f0 != hops {
		r.wrongf("daemons counted %d frames for reads that cost %d msgs", f1-f0, hops)
	}
	r.set("wire.frames_per_read", float64(f1-f0)/float64(len(floors)), "frames/op")

	n := c.scaled(2000, 100)
	r.set("wire.call_rtt_us", timeEach(tr, lRPC, kPing, n, func(i int) {
		if e := dc.clients[i%dwDaemons].Call("ping", nil, nil); e != nil {
			err = e
		}
	})/1e3, "us")
	if err != nil {
		return err
	}
	hc, err := wire.Dial(sim.HostID(0), dc.daemons[0].Addr(), time.Second)
	if err != nil {
		return err
	}
	r.set("wire.hop_rtt_us", timeEach(tr, lHop, kNone, n, func(int) {
		if e := hc.Hop(); e != nil {
			err = e
		}
	})/1e3, "us")
	hc.Close()
	if err != nil {
		return err
	}
	fs, err := fsyncProbe(dc.walDir, c.scaled(500, 50), tr)
	if err != nil {
		return err
	}
	r.set("wal.fsync_us", fs, "us")

	// The engines the daemons run, replayed in process over the same
	// stream: hop counts must match the daemons' replies.
	cfg := in.cfg
	net := sim.NewNetwork(cfg.Hosts)
	bl, err := core.NewBlockedWeb(net, cfg.InitialKeys(), core.BlockedConfig{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	var qNs, insNs float64
	var qN, insN int64
	for i, op := range in.ops {
		id := tr.open(0, lEngine, op.kind)
		t := time.Now()
		o := sim.HostID(op.origin)
		var h int
		switch op.kind {
		case kFloor:
			_, _, h, err = bl.Query(op.key, o)
			qNs += float64(time.Since(t).Nanoseconds())
			qN++
		case kInsert:
			h, err = bl.Insert(op.key, o)
			insNs += float64(time.Since(t).Nanoseconds())
			insN++
		case kDelete:
			h, err = bl.Delete(op.key, o)
		}
		tr.close(id)
		if err != nil {
			return err
		}
		if int32(h) != opHops[i] {
			r.wrongf("op %d costs %d msgs in process but %d over the daemons", i, h, opHops[i])
		}
	}
	r.set("core.blocked_query_ns", qNs/float64(max64(qN, 1)), "ns")
	r.set("core.blocked_insert_ns", insNs/float64(max64(insN, 1)), "ns")
	bu, err := core.NewBucketWeb(sim.NewNetwork(cfg.Hosts), in.final, 8, 0, cfg.Seed, 1)
	if err != nil {
		return err
	}
	r.set("core.bucket_query_ns", timeEach(tr, lEngine, kFloor, len(floors), func(i int) {
		if _, _, _, e := bu.Query(floors[i].key, sim.HostID(floors[i].origin)); e != nil {
			err = e
		}
	}), "ns")
	return err
}

// fsyncProbe appends n record-sized lines to a scratch file in the WAL
// directory, each followed by Sync, and returns the median in us.
func fsyncProbe(dir string, n int, tr *tracer) (float64, error) {
	f, err := os.OpenFile(filepath.Join(dir, "fsync-probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	line := []byte("i 1099511627775 3\n")
	var us []float64
	for i := 0; i < n; i++ {
		id := tr.open(0, lFsync, kInsert)
		t := time.Now()
		if _, err := f.Write(line); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, err
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		tr.close(id)
	}
	return median(us), f.Close()
}
