package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json's whole schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkJSON
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the tables in
// workloads.go and metrics.go together, inside the contract's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if bf.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, budgets are frozen at %d", bf.RunSeconds, nominalSeconds)
	}
	if len(bf.Workloads) != len(specs) || len(bf.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go (limit 8)", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.Name)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) || len(bf.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go (limit 16)", len(bf.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, metrics.go %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end_to_end %q: name, unit or bound outside the contract", m.Name)
		}
		seen[m.Name] = true
	}
	if s := bf.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be a lower-is-better metric in s, got %+v", s)
	}

	if len(bf.PerLayer) != len(perLayer) || len(bf.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, metrics.go %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer %q: name or unit outside the contract, or used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs all four workloads at a fiftieth of their size, traced (a
// traced run is the untraced loop, the traced loop and the drives): the
// correctness gate passes and every metric is emitted.
func TestSmoke(t *testing.T) {
	const seconds = nominalSeconds * 0.02
	out := t.TempDir()
	for _, sp := range specs {
		rep, err := runOnce(sp, 21, seconds, true, nil, out)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rep.Result.Correct {
			t.Errorf("%s: gate failed: %v", sp.name, rep.Info.GateFailures)
		}
		if rep.Result.Attempted < 1 || rep.Result.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", sp.name, rep.Result.Attempted, rep.Result.Failed)
		}
		if len(rep.EndToEnd) != len(endToEnd) || len(rep.Result.Metrics) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics emitted, want %d and %d",
				sp.name, len(rep.EndToEnd), len(rep.Result.Metrics), len(endToEnd), len(perLayer))
		}
		for _, m := range endToEnd {
			if v, ok := rep.EndToEnd[m.name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %v", sp.name, m.name, v)
			}
		}
		for _, m := range perLayer {
			v, ok := rep.Result.Metrics[m.name]
			if !ok || v.Unit != m.unit || v.Value != v.Value {
				t.Errorf("%s: per-layer metric %s missing, NaN or in the wrong unit: %+v", sp.name, m.name, v)
			}
		}
		if _, err := os.Stat(out + "/trace-" + sp.name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", sp.name, err)
		}
	}
}

func TestCorpusCoversTheGenerators(t *testing.T) {
	stmts := corpus()
	for _, table := range []string{
		"usertable", "savings", "checking", "subscriber", "special_facility", "access_info", "call_forwarding",
		"warehouse", "district", "customer", "history", "item", "stock", "orders", "new_order", "order_line",
	} {
		found := false
		for _, s := range stmts {
			found = found || strings.Contains(s, table)
		}
		if !found {
			t.Errorf("no corpus statement touches %s", table)
		}
	}
}

func flat(values ...float64) summary {
	s := summary{Values: values, N: len(values)}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

func TestJudge(t *testing.T) {
	base := flat(1000, 1010, 990, 1005, 995)
	for _, c := range []struct {
		name   string
		b      summary
		better string
		want   verdict
	}{
		{"a fifth slower is a regression", flat(800, 805, 795, 810, 790), "higher", regressed},
		{"noise inside the bound is no change", flat(985, 1020, 1001, 990, 1012), "higher", unchanged},
		{"a fifth faster is an improvement", flat(1200, 1210, 1190, 1205, 1195), "higher", improved},
		{"lower is better turns it around", flat(1200, 1210, 1190, 1205, 1195), "lower", regressed},
		{"a wide spread around a worse median is unresolved", flat(600, 1100, 850, 1300, 700), "higher", unresolved},
		{"a wide spread still regresses when every run is worse", flat(500, 700, 600, 900, 400), "higher", regressed},
	} {
		if got, worse, spread := judge(base, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: got %s (worse %.3f, spread %.3f), want %s", c.name, got, worse, spread, c.want)
		}
	}
	// Virtual metrics repeat exactly: any move beyond the bound stands.
	if got, _, _ := judge(flat(50, 50, 50), flat(51, 51, 51), "lower", 0.01); got != regressed {
		t.Errorf("exact 2%% move against a 1%% bound: got %s", got)
	}
}

func TestCompareReportsRegressionsAndDigests(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []boundedMetric{{"host_txn_per_s", "1/s", "higher", 0.10}}}
	mk := func(digest string, values ...float64) ledger {
		l := ledger{Workloads: map[string]workloadLedger{}}
		for _, sp := range specs {
			l.Workloads[sp.name] = workloadLedger{ArchiveDigest: digest,
				EndToEnd: map[string]summary{"host_txn_per_s": flat(values...)}}
		}
		return l
	}
	var out bytes.Buffer
	if n := compare(&out, bf, mk("aa", 1000, 1010, 990), mk("aa", 1004, 1001, 995)); n != 0 {
		t.Errorf("noise-only pair: %d regressions\n%s", n, out.String())
	}
	if strings.Contains(out.String(), "archive_digest differs") {
		t.Errorf("equal digests reported as different:\n%s", out.String())
	}
	out.Reset()
	if n := compare(&out, bf, mk("aa", 1000, 1010, 990), mk("bb", 800, 810, 790)); n != len(specs) {
		t.Errorf("regressed pair: %d regressions, want one per workload\n%s", n, out.String())
	}
	if got := strings.Count(out.String(), "archive_digest differs: aa -> bb"); got != len(specs) {
		t.Errorf("digest change reported %d times, want %d\n%s", got, len(specs), out.String())
	}
	if !strings.Contains(out.String(), "of 1000") {
		t.Errorf("the ratio is printed without its base:\n%s", out.String())
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
