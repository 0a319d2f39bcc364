package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// digestFile holds the recorded output digests, per seed: the Table I text
// with its per-interval statistics (table1-synth) and the flowd-replay
// report series. A run whose seed is recorded must reproduce them; a run whose
// seed is not still checks every pass against a reference it computes.
//
//go:embed digests.json
var digestFile []byte

type digestTable struct {
	Table1 map[string]string `json:"table1"`
	Flowd  map[string]string `json:"flowd"`
}

var recorded = func() digestTable {
	var t digestTable
	if err := json.Unmarshal(digestFile, &t); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return t
}()

// recordedDigest returns the recorded digest of seed in table ("" when the
// seed is not recorded).
func recordedDigest(table map[string]string, seed int64) string {
	return table[strconv.FormatInt(seed, 10)]
}

// digest is the short content hash outputs are compared by.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// recordDigests recomputes the digests of seeds lo..hi ("lo:hi") and writes
// perfbench/digests.json. Run it only on a tree whose outputs are known
// good: every later run is checked against what it writes.
func recordDigests(root, span string) error {
	a, b, ok := strings.Cut(span, ":")
	lo, err1 := strconv.ParseInt(a, 10, 64)
	hi, err2 := strconv.ParseInt(b, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("--record-digests wants lo:hi, got %q", span)
	}
	tmp, err := os.MkdirTemp(scratchRoot(root), "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	t := digestTable{Table1: map[string]string{}, Flowd: map[string]string{}}
	for seed := lo; seed <= hi; seed++ {
		out, err := runTable1(table1Options(seed))
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		fx, err := newFlowdFixture(filepath.Join(tmp, fmt.Sprint(seed)), seed)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		ref, err := fx.directReports()
		fx.close()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		key := strconv.FormatInt(seed, 10)
		t.Table1[key], t.Flowd[key] = out.digest, ref.digest
		fmt.Printf("seed %d table1 %s flowd %s\n", seed, out.digest, ref.digest)
	}
	buf, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "digests.json"), append(buf, '\n'), 0o644)
}
