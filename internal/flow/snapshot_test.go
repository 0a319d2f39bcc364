package flow

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// churn builds a deterministic packet stream with flow churn: many keys,
// revisited at staggered gaps so some flows stay open, some time out, and
// some are single-packet discards.
func churn(n int, t0 float64) []trace.Record {
	recs := make([]trace.Record, 0, n)
	t := t0
	for i := 0; i < n; i++ {
		t += 0.05 + float64(i%7)*0.01
		recs = append(recs, rec(t, byte(i%11), byte(i%5), uint16(1000+i%13), uint16(100+i%800)))
	}
	return recs
}

// TestAssemblerSnapshotDifferential is the restore ≡ live contract: feed a
// prefix, snapshot, restore into a fresh assembler, feed the identical
// suffix to both, and require identical flushed results.
func TestAssemblerSnapshotDifferential(t *testing.T) {
	for _, def := range []Definition{By5Tuple, ByPrefix24} {
		live, err := NewAssembler(def, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		recs := churn(500, 0)
		split := 240
		for _, r := range recs[:split] {
			if err := live.add(r); err != nil {
				t.Fatal(err)
			}
		}
		st := live.SnapshotState()

		restored, err := NewAssembler(def, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreState(st); err != nil {
			t.Fatalf("RestoreState(%v): %v", def, err)
		}
		for _, r := range recs[split:] {
			if err := live.add(r); err != nil {
				t.Fatal(err)
			}
			if err := restored.add(r); err != nil {
				t.Fatal(err)
			}
		}
		a, b := live.Flush(), restored.Flush()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("def %v: restored assembler diverged from live:\nlive:     %+v\nrestored: %+v", def, a, b)
		}
	}
}

// TestAssemblerSnapshotIsStable asserts the snapshot value is independent of
// the table's physical history: an assembler that was restored (different
// insert order, different capacity growth) snapshots back to the same value.
func TestAssemblerSnapshotIsStable(t *testing.T) {
	a, err := NewAssembler(By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range churn(300, 0) {
		if err := a.add(r); err != nil {
			t.Fatal(err)
		}
	}
	st := a.SnapshotState()
	b, err := NewAssembler(By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if st2 := b.SnapshotState(); !reflect.DeepEqual(st, st2) {
		t.Fatalf("snapshot not stable across restore:\nfirst:  %+v\nsecond: %+v", st, st2)
	}
}

func TestAssemblerSnapshotCarriesUnflushed(t *testing.T) {
	// Timeout short enough that sweeps finalise flows mid-stream: the
	// snapshot must carry those unflushed results.
	a, err := NewAssembler(By5Tuple, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range churn(2000, 0) {
		if err := a.add(r); err != nil {
			t.Fatal(err)
		}
	}
	st := a.SnapshotState()
	if len(st.Flows)+len(st.Discarded) == 0 {
		t.Fatal("expected unflushed evicted flows in the snapshot (sweep never fired?)")
	}
	b, err := NewAssembler(By5Tuple, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if x, y := a.Flush(), b.Flush(); !reflect.DeepEqual(x, y) {
		t.Fatal("flushed results differ after restore")
	}
}

func TestAssemblerRestoreRejectsBadSnapshots(t *testing.T) {
	base := AssemblerState{
		Started:  true,
		LastTime: 10,
		Entries:  []FlowEntry{{KeyA: 1, KeyB: 2, Start: 1, Last: 2, Bytes: 100, Packets: 2}},
	}
	cases := map[string]func(*AssemblerState){
		"zero packets":  func(s *AssemblerState) { s.Entries[0].Packets = 0 },
		"end<start":     func(s *AssemblerState) { s.Entries[0].Last = 0.5 },
		"ahead of time": func(s *AssemblerState) { s.Entries[0].Last = 99 },
		"not started":   func(s *AssemblerState) { s.Started = false },
		"duplicate key": func(s *AssemblerState) { s.Entries = append(s.Entries, s.Entries[0]) },
	}
	for name, mutate := range cases {
		st := AssemblerState{
			Started:  base.Started,
			LastTime: base.LastTime,
			Entries:  append([]FlowEntry(nil), base.Entries...),
		}
		mutate(&st)
		a, err := NewAssembler(By5Tuple, DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.RestoreState(st); err == nil {
			t.Errorf("%s: RestoreState accepted an invalid snapshot", name)
		}
		if a.ActiveFlows() != 0 {
			t.Errorf("%s: failed restore left %d flows behind", name, a.ActiveFlows())
		}
	}
}

func TestMeasurerSnapshotRoundTrip(t *testing.T) {
	defs := []Definition{By5Tuple, ByPrefix24}
	live, err := NewMeasurer(defs, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	recs := churn(400, 0)
	for _, r := range recs[:200] {
		if err := live.add(r); err != nil {
			t.Fatal(err)
		}
	}
	states := live.SnapshotStates()
	restored, err := NewMeasurer(defs, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreStates(states); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[200:] {
		if err := live.add(r); err != nil {
			t.Fatal(err)
		}
		if err := restored.add(r); err != nil {
			t.Fatal(err)
		}
	}
	if x, y := live.Flush(), restored.Flush(); !reflect.DeepEqual(x, y) {
		t.Fatal("measurer results differ after restore")
	}

	if err := restored.RestoreStates(states[:1]); err == nil {
		t.Fatal("RestoreStates accepted a definition-count mismatch")
	}
}
