package experiment

import (
	"testing"

	"tscout/internal/tscout"
)

func TestFig1Shape(t *testing.T) {
	t.Parallel()
	rows, err := Fig1(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %+v", rows)
	}
	none, user, kern := rows[0].P99Ms, rows[1].P99Ms, rows[2].P99Ms
	// Paper Fig. 1: none (5.2) < kernel (5.7) < user (6.3).
	if !(none < kern) {
		t.Fatalf("no-metrics must be fastest: none=%.3f kernel=%.3f user=%.3f", none, kern, user)
	}
	if !(kern < user) {
		t.Fatalf("kernel must beat user-space: none=%.3f kernel=%.3f user=%.3f", none, kern, user)
	}
	// The gaps are tail-latency effects, not multiples.
	if user > none*2 {
		t.Fatalf("user-space overhead out of proportion: %.3f vs %.3f", user, none)
	}
}

func TestFig5and6Shapes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	sc := Quick
	sc.OnlineTxns = 800
	sc.RatePoints = []int{0, 20, 100}
	rows, err := Fig5and6(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Index rows by (workload, mode, rate).
	type key struct {
		wl   string
		mode tscout.Mode
		rate int
	}
	m := map[key]OverheadRow{}
	wls := map[string]bool{}
	for _, r := range rows {
		m[key{r.Workload, r.Mode, r.Rate}] = r
		wls[r.Workload] = true
	}
	if len(wls) != 4 {
		t.Fatalf("expected 4 workloads: %v", wls)
	}
	for wl := range wls {
		kc0 := m[key{wl, tscout.KernelContinuous, 0}]
		kc100 := m[key{wl, tscout.KernelContinuous, 100}]
		ut100 := m[key{wl, tscout.UserToggle, 100}]
		uc0 := m[key{wl, tscout.UserContinuous, 0}]
		uc100 := m[key{wl, tscout.UserContinuous, 100}]

		// Fig 5: throughput falls as the rate rises for every method.
		if !(kc100.ThroughputTPS < kc0.ThroughputTPS) {
			t.Fatalf("%s: kernel throughput must fall with rate: %+v vs %+v", wl, kc100, kc0)
		}
		// User-Toggle is the slowest at full rate (3 syscalls/OU).
		if !(ut100.ThroughputTPS < kc100.ThroughputTPS) {
			t.Fatalf("%s: User-Toggle must be slowest: toggle=%.0f kernel=%.0f",
				wl, ut100.ThroughputTPS, kc100.ThroughputTPS)
		}
		// User-Continuous pays PMU save cost even at 0%.
		if !(uc0.ThroughputTPS < kc0.ThroughputTPS) {
			t.Fatalf("%s: User-Continuous at 0%% must trail the baseline: %.0f vs %.0f",
				wl, uc0.ThroughputTPS, kc0.ThroughputTPS)
		}
		// Fig 6: Kernel-Continuous generates data fastest at full rate.
		if !(kc100.SamplesPerSec > ut100.SamplesPerSec && kc100.SamplesPerSec > uc100.SamplesPerSec) {
			t.Fatalf("%s: kernel collection rate must dominate: kc=%.0f ut=%.0f uc=%.0f",
				wl, kc100.SamplesPerSec, ut100.SamplesPerSec, uc100.SamplesPerSec)
		}
		// Rate 0 generates nothing.
		if kc0.SamplesPerSec != 0 {
			t.Fatalf("%s: 0%% rate generated samples", wl)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	t.Parallel()
	sc := Quick
	sc.OnlineTxns = 1000
	rows, err := Fig8(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("phases: %+v", rows)
	}
	off, all, walOnly := rows[0].ThroughputTPS, rows[1].ThroughputTPS, rows[2].ThroughputTPS
	// Paper Fig. 8: enabling all subsystems dips throughput ~7%;
	// disabling EE+networking recovers it (YCSB is read-only, so the
	// WAL-only phase collects almost nothing).
	if !(all < off) {
		t.Fatalf("collection must dip throughput: all=%.0f off=%.0f", all, off)
	}
	if !(walOnly > all) {
		t.Fatalf("WAL-only phase must recover: walOnly=%.0f all=%.0f", walOnly, all)
	}
	dip := (off - all) / off
	if dip < 0.005 || dip > 0.40 {
		t.Fatalf("dip out of plausible range: %.1f%%", dip*100)
	}
	recovery := (off - walOnly) / off
	if recovery > dip {
		t.Fatalf("recovery must close most of the gap: recovery=%.3f dip=%.3f", recovery, dip)
	}
}

func TestSummaryClaims(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	s, err := Summary()
	if err != nil {
		t.Fatal(err)
	}
	// Paper §6.2: ~7% overhead at the recommended configuration; the
	// shape constraint here is "small but nonzero".
	if s.KernelOverheadPctAt10 <= 0 || s.KernelOverheadPctAt10 > 25 {
		t.Fatalf("overhead at 10%%: %.1f%%", s.KernelOverheadPctAt10)
	}
	// Paper §6.2: kernel-space collection generates ~3x more data than
	// the best user-space method; require a clear multiple.
	ratio := s.KernelPeakSamplesPerSec / s.BestUserSamplesPerSec
	if ratio < 1.5 {
		t.Fatalf("kernel data-rate advantage too small: %.2fx (kc=%.0f user=%.0f)",
			ratio, s.KernelPeakSamplesPerSec, s.BestUserSamplesPerSec)
	}
}
