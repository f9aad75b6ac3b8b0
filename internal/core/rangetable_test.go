package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/skipwebs/skipwebs/internal/quadtree"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/trie"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// unplacedSlots counts the slots of n's range table that hold no range:
// IDs the level structure freed and has not handed out again.
func unplacedSlots[L, T any](n *setNode[L, T]) int {
	free := 0
	for _, rec := range n.recs {
		if rec.host == sim.None {
			free++
		}
	}
	return free
}

// recycleRanges deletes items and re-inserts them, interleaved, so the
// level structures' free lists hand recycled RangeIDs back out, and runs
// CheckInvariants after every operation. It fails unless some insert
// reused a freed slot of the root's range table.
func recycleRanges[L, T, Q any](t *testing.T, w *Web[L, T, Q], items []T, seed uint64) {
	t.Helper()
	if err := w.CheckInvariants(); err != nil {
		t.Fatalf("after build: %v", err)
	}
	rng := xrand.New(seed)
	present := slices.Clone(items)
	var deleted []T
	reused := 0
	for op := 0; op < 3*len(items); op++ {
		origin := sim.HostID(rng.Intn(w.net.LiveHosts()))
		if len(deleted) > 0 && (len(present) < len(items)/4 || rng.Intn(2) == 0) {
			i := rng.Intn(len(deleted))
			x := deleted[i]
			deleted[i] = deleted[len(deleted)-1]
			deleted = deleted[:len(deleted)-1]
			free := unplacedSlots(w.root)
			if _, err := w.Insert(x, origin); err != nil {
				t.Fatalf("op %d: re-insert: %v", op, err)
			}
			if unplacedSlots(w.root) < free {
				reused++
			}
			present = append(present, x)
		} else {
			i := rng.Intn(len(present))
			x := present[i]
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
			if _, err := w.Delete(x, origin); err != nil {
				t.Fatalf("op %d: delete: %v", op, err)
			}
			deleted = append(deleted, x)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if w.Len() != len(present) {
		t.Fatalf("web holds %d items, want %d", w.Len(), len(present))
	}
	if reused == 0 {
		t.Fatal("no insert reused a freed range ID of the root structure")
	}
}

// TestRangeTableRecyclesIDs drives each dynamic link structure's free
// list (ListLevel slots, quadtree and trie node pools) through delete and
// re-insert churn, with and without replication, checking after every
// operation that live ranges are placed and every other table slot is
// unplaced and empty.
func TestRangeTableRecyclesIDs(t *testing.T) {
	for _, k := range []int{1, 2} {
		cfg := Config{Seed: 91, Replicas: k}
		t.Run(fmt.Sprintf("onedim/k%d", k), func(t *testing.T) {
			keys := distinctKeys(xrand.New(1), 240, 1<<40)
			w, err := NewWeb[*ListLevel, uint64, uint64](NewListOps(), sim.NewNetwork(24), keys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recycleRanges(t, w, keys, 2)
		})
		t.Run(fmt.Sprintf("points/k%d", k), func(t *testing.T) {
			pts := randPoints(xrand.New(3), 2, 200, 1<<20)
			w, err := NewWeb[*quadtree.Tree, quadtree.Point, uint64](NewQuadOps(2), sim.NewNetwork(24), pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recycleRanges(t, w, pts, 4)
		})
		t.Run(fmt.Sprintf("strings/k%d", k), func(t *testing.T) {
			strs := randStrings(xrand.New(5), 200, "acgt", 1, 10)
			w, err := NewWeb[*trie.Trie, string, string](NewTrieOps(), sim.NewNetwork(24), strs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recycleRanges(t, w, strs, 6)
		})
	}
}

// recordDeliveries builds a web over the first few keys on a fresh
// network, then inserts the rest while recording every charged message's
// destination through the delivery tap.
func recordDeliveries(t *testing.T, keys []uint64) (seq []sim.HostID, splits int) {
	t.Helper()
	net := sim.NewNetwork(32)
	w, err := NewWeb[*ListLevel, uint64, uint64](NewListOps(), net, keys[:8], Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	net.SetDeliver(func(h sim.HostID) { seq = append(seq, h) })
	for i, k := range keys[8:] {
		before := w.NumStructures()
		if _, err := w.Insert(k, sim.HostID(i%32)); err != nil {
			t.Fatal(err)
		}
		if w.NumStructures() > before {
			splits++
		}
	}
	return seq, splits
}

// TestSplitSendsDeterministic pins the order of the messages a leaf split
// charges: two webs built with the same seed must deliver the identical
// host sequence over an insert stream that splits leaves.
func TestSplitSendsDeterministic(t *testing.T) {
	keys := distinctKeys(xrand.New(9), 400, 1<<40)
	a, splits := recordDeliveries(t, keys)
	if splits == 0 {
		t.Fatal("insert stream split no leaf")
	}
	for run := 0; run < 3; run++ {
		b, _ := recordDeliveries(t, keys)
		if len(a) != len(b) {
			t.Fatalf("run %d: %d deliveries, want %d", run, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("run %d: delivery %d went to host %d, want %d", run, i, b[i], a[i])
			}
		}
	}
}
