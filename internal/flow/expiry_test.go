package flow

import (
	"math/rand"
	"testing"
)

// TestSweepExpiredDifferential drives flowTable insert/update/delete churn
// interleaved with incremental sweepExpired steps against a map+timestamp
// reference. The degenerate hash collapses the whole table onto one probe
// chain, so expiry deletions constantly backward-shift entries through the
// sweep cursor — the exact interleaving the incremental sweep must survive.
func TestSweepExpiredDifferential(t *testing.T) {
	type key struct{ a, b uint64 }
	type refEntry struct {
		slot int32
		last float64
	}
	for _, tc := range []struct {
		name string
		hash func(a, b uint64) uint64
	}{
		{"real-hash", hashKey},
		{"degenerate-hash", func(a, b uint64) uint64 { return 7 }},
		{"paired-hash", func(a, b uint64) uint64 { return hashKey(a/2, b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			var tab flowTable
			tab.reset()
			ref := map[key]refEntry{}
			slotKey := map[int32]key{}
			now := 0.0
			nextSlot := int32(0)
			const timeout = 30.0
			for op := 0; op < 30000; op++ {
				now += rng.Float64() * 0.5
				k := key{uint64(rng.Intn(300)), uint64(rng.Intn(4))}
				h := tc.hash(k.a, k.b)
				switch {
				case rng.Intn(10) < 7: // touch: insert or refresh last-seen
					pos, found := tab.find(h, k.a, k.b)
					re, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if !found {
						slot := nextSlot
						nextSlot++
						pos = tab.insert(pos, h, k.a, k.b, slot)
						ref[k] = refEntry{slot: slot, last: now}
						slotKey[slot] = k
					} else {
						re.last = now
						ref[k] = re
					}
					tab.last[pos] = now
				case len(ref) > 0 && rng.Intn(4) == 0: // explicit delete
					pos, found := tab.find(h, k.a, k.b)
					_, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: pre-delete find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if found {
						delete(slotKey, tab.slot[pos])
						tab.del(pos)
						delete(ref, k)
					}
				default: // incremental expiry step
					deadline := now - timeout
					tab.sweepExpired(deadline, 32, func(slot int32) {
						kk, ok := slotKey[slot]
						if !ok {
							t.Fatalf("op %d: sweep evicted unknown slot %d", op, slot)
						}
						re := ref[kk]
						if !(re.last < deadline) {
							t.Fatalf("op %d: sweep evicted live key %v (last %g, deadline %g)",
								op, kk, re.last, deadline)
						}
						delete(ref, kk)
						delete(slotKey, slot)
					})
				}
				if tab.n != len(ref) {
					t.Fatalf("op %d: table holds %d entries, reference %d", op, tab.n, len(ref))
				}
			}
			// Lookup parity over the full key space at the end.
			for a := uint64(0); a < 300; a++ {
				for b := uint64(0); b < 4; b++ {
					k := key{a, b}
					h := tc.hash(k.a, k.b)
					pos, found := tab.find(h, k.a, k.b)
					re, refFound := ref[k]
					if found != refFound {
						t.Fatalf("final find(%v) = %v, reference %v", k, found, refFound)
					}
					if found && tab.slot[pos] != re.slot {
						t.Fatalf("final slot(%v) = %d, reference %d", k, tab.slot[pos], re.slot)
					}
				}
			}
		})
	}
}

// TestSweepExpiredFullRotationFindsAllIdle checks the rotation guarantee:
// enough consecutive steps to cover the table evict every idle entry, and
// live entries survive untouched.
func TestSweepExpiredFullRotationFindsAllIdle(t *testing.T) {
	var tab flowTable
	tab.reset()
	// 100 idle entries (last = 1) and 50 live ones (last = 100).
	for i := 0; i < 150; i++ {
		a, b := uint64(i), uint64(0)
		h := hashKey(a, b)
		pos, found := tab.find(h, a, b)
		if found {
			t.Fatal("duplicate key in setup")
		}
		pos = tab.insert(pos, h, a, b, int32(i))
		if i < 100 {
			tab.last[pos] = 1
		} else {
			tab.last[pos] = 100
		}
	}
	evicted := map[int32]bool{}
	deadline := 50.0
	// Steps of 16 positions; 2*size/16 steps guarantee a full rotation even
	// with deleting steps not advancing the cursor (each delete shrinks the
	// remaining work).
	steps := 2 * len(tab.hash) / 16
	for s := 0; s < steps; s++ {
		tab.sweepExpired(deadline, 16, func(slot int32) {
			if evicted[slot] {
				t.Fatalf("slot %d evicted twice", slot)
			}
			evicted[slot] = true
		})
	}
	if len(evicted) != 100 {
		t.Fatalf("full rotation evicted %d idle entries, want 100", len(evicted))
	}
	for slot := range evicted {
		if slot >= 100 {
			t.Fatalf("live slot %d evicted", slot)
		}
	}
	if tab.n != 50 {
		t.Fatalf("table holds %d entries after expiry, want 50", tab.n)
	}
}

// TestAssemblerExpiryInterleavedWithChurn runs the assembler over a stream
// engineered so incremental expiry, timeout flow splits, and table growth
// all interleave, and compares against the map reference — results must be
// identical no matter when eviction happens.
func TestAssemblerExpiryInterleavedWithChurn(t *testing.T) {
	for seed := int64(40); seed < 43; seed++ {
		recs := randomRecords(8000, seed)
		// Stretch time so many flows idle past the 5 s timeout.
		for i := range recs {
			recs[i].Time *= 3
		}
		a, err := NewAssembler(By5Tuple, 5)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefAssembler(By5Tuple, 5)
		for _, rec := range recs {
			if err := a.add(rec); err != nil {
				t.Fatal(err)
			}
			ref.add(rec)
		}
		got, want := a.Flush(), ref.flush()
		if !resultsEqual(got, want) {
			t.Fatalf("seed %d: expiry-churn stream diverged from reference (%d/%d vs %d/%d)",
				seed, len(got.Flows), len(got.Discarded), len(want.Flows), len(want.Discarded))
		}
	}
}
