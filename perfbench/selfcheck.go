package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worse returns by what share b is worse than a, for a metric where
// better is "lower" or "higher" (negative when b is better).
func (m boundedMetric) worse(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// checkRow is one (workload, metric) line of the self-check report.
type checkRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Bound    float64   `json:"bound"`
	Median   []float64 `json:"median"` // per set
	Spread   []float64 `json:"spread"` // per set: (q3-q1)/median
	Worse    float64   `json:"worse"`  // second set's median against the first's; negative when better
	Agree    bool      `json:"agree"`
	Steady   bool      `json:"steady"` // every spread below a third of the bound
}

type runRecord struct {
	Set      int      `json:"set"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Digests  []string `json:"digests"`
	Result   result   `json:"result"`
}

// selfcheckRuns is how many runs of each workload one self-check set makes.
const selfcheckRuns = 10

// selfcheck runs every workload selfcheckRuns times with seeds seed0.. in
// two sets, one after the other, on this tree, and prints for each
// end-to-end metric and workload whether the two sets agree within the
// metric's bound: both spreads within the bound and the two medians apart
// by no more than the bound, whichever set is the faster. The full report
// goes to .bench_build/selfcheck.json.
func selfcheck(root string, seed0 int64) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var recs []runRecord
	ok := true
	for set := 0; set < 2; set++ {
		for _, w := range names {
			for i := 0; i < selfcheckRuns; i++ {
				seed := seed0 + int64(i)
				t0 := time.Now()
				rec, err := runChild(exe, root, w, seed, spec.RunSeconds)
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", set+1, w, seed, err)
				}
				rec.Set = set + 1
				recs = append(recs, rec)
				ok = ok && rec.Result.Correct
				fmt.Printf("run set=%d workload=%s seed=%d wall=%.1fs correct=%t %s\n", set+1, w, seed,
					time.Since(t0).Seconds(), rec.Result.Correct, compact(rec.Result, spec.EndToEnd))
			}
		}
	}
	var rows []checkRow
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			row := checkRow{Workload: w, Metric: m.Name, Bound: m.Bound, Agree: true, Steady: true}
			for set := 1; set <= 2; set++ {
				var vs []float64
				for _, r := range recs {
					if r.Set == set && r.Workload == w {
						vs = append(vs, r.Result.Metrics[m.Name].Value)
					}
				}
				sp := spread(vs)
				row.Median = append(row.Median, median(vs))
				row.Spread = append(row.Spread, sp)
				if sp > m.Bound {
					row.Agree = false
				}
				if sp >= m.Bound/3 {
					row.Steady = false
				}
			}
			row.Worse = m.worse(row.Median[0], row.Median[1])
			if math.Abs(row.Worse) > m.Bound {
				row.Agree = false
			}
			ok = ok && row.Agree
			rows = append(rows, row)
		}
	}
	h := currentHost()
	fmt.Printf("\nhost nproc=%d gomaxprocs=%d go=%s cpu=%q; %d runs per set, seeds %d..%d, %d s each\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, selfcheckRuns, seed0, seed0+selfcheckRuns-1, spec.RunSeconds)
	fmt.Printf("%-13s %-22s %6s %12s %7s %12s %7s %7s  %s\n", "workload", "metric", "bound", "median1", "spread1", "median2", "spread2", "worse", "verdict")
	for _, r := range rows {
		verdict := "agree"
		if !r.Agree {
			verdict = "DISAGREE"
		} else if !r.Steady {
			verdict = "agree (a spread is above a third of the bound)"
		}
		fmt.Printf("%-13s %-22s %6.3f %12.6g %7.4f %12.6g %7.4f %+7.4f  %s\n", r.Workload, r.Metric, r.Bound,
			r.Median[0], r.Spread[0], r.Median[1], r.Spread[1], r.Worse, verdict)
	}
	report := struct {
		Host hostShape   `json:"host"`
		Runs []runRecord `json:"runs"`
		Rows []checkRow  `json:"rows"`
	}{h, recs, rows}
	buf, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, ".bench_build", "selfcheck.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	if !ok {
		return fmt.Errorf("self-check failed: a run was incorrect or a metric disagreed")
	}
	return nil
}

// runChild runs one end-to-end run in a fresh process and parses its
// result line and digest lines.
func runChild(exe, root, w string, seed int64, seconds int) (runRecord, error) {
	cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	// A run must not outlive an interrupted self-check.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return runRecord{}, err
	}
	rec := runRecord{Workload: w, Seed: seed}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "digest ") {
			rec.Digests = append(rec.Digests, last)
		}
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		return runRecord{}, fmt.Errorf("result line %q: %w", last, err)
	}
	return rec, nil
}

func compact(r result, ms []boundedMetric) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s=%.6g ", m.Name, r.Metrics[m.Name].Value)
	}
	return strings.TrimSpace(b.String())
}
