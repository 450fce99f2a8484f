package experiment

import "testing"

func TestAblationNoise(t *testing.T) {
	t.Parallel()
	sc := quickAcc()
	rows, err := AblationNoise(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Sigma != 0 {
		t.Fatalf("rows: %+v", rows)
	}
	// The offline/online gap is structural: it must persist at sigma=0.
	zero := rows[0]
	if zero.LogSerOnlineUS >= zero.LogSerOfflineUS {
		t.Fatalf("batching gap must exist without noise: %+v", zero)
	}
	if zero.LogSerOfflineUS < 2*zero.LogSerOnlineUS {
		t.Fatalf("gap at sigma=0 too small: %+v", zero)
	}
	// Online error floors must grow with noise.
	last := rows[len(rows)-1]
	if last.LogSerOnlineUS <= zero.LogSerOnlineUS {
		t.Fatalf("noise must raise the online error floor: %+v vs %+v", last, zero)
	}
}

func TestAblationGroupCommit(t *testing.T) {
	t.Parallel()
	sc := quickAcc()
	rows, err := AblationGroupCommit(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].GroupSize != 1 {
		t.Fatalf("rows: %+v", rows)
	}
	sync, big := rows[0], rows[len(rows)-1]
	// Larger groups batch far more records per flush (the effect offline
	// runners never see, Figs. 2/9)...
	if big.MeanBatchRecords < 4*sync.MeanBatchRecords {
		t.Fatalf("batch sizes must grow: %+v vs %+v", big, sync)
	}
	// ...at a commit tail-latency cost (clients wait for the window).
	if big.P99US <= sync.P99US {
		t.Fatalf("group commit must cost tail latency: %+v vs %+v", big, sync)
	}
	// Batch sizes must grow monotonically across the sweep.
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanBatchRecords < rows[i-1].MeanBatchRecords {
			t.Fatalf("batching must grow with the policy: %+v", rows)
		}
	}
}

func TestAblationSamplingGranularity(t *testing.T) {
	t.Parallel()
	sc := quickAcc()
	rows, err := AblationSamplingGranularity(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %+v", rows)
	}
	off, ten, full := rows[0], rows[1], rows[2]
	if !(off.ThroughputTPS > ten.ThroughputTPS && ten.ThroughputTPS > full.ThroughputTPS) {
		t.Fatalf("throughput must degrade with collection volume: %.0f / %.0f / %.0f",
			off.ThroughputTPS, ten.ThroughputTPS, full.ThroughputTPS)
	}
	// The recommended 10% setting must recover most of the full-rate loss.
	lossAt10 := off.ThroughputTPS - ten.ThroughputTPS
	lossAt100 := off.ThroughputTPS - full.ThroughputTPS
	if lossAt10 > lossAt100/2 {
		t.Fatalf("10%% sampling must cost far less than 100%%: %.0f vs %.0f", lossAt10, lossAt100)
	}
}

func TestAblationExternalCollection(t *testing.T) {
	t.Parallel()
	sc := quickAcc()
	rows, err := AblationExternalCollection(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %+v", rows)
	}
	none, internal, external := rows[0], rows[1], rows[2]
	// §2.2: EXPLAIN-per-query external collection must cost more than
	// TScout's internal markers, even at a 100% sampling rate.
	if !(external.ThroughputTPS < internal.ThroughputTPS) {
		t.Fatalf("external collection must be slower than internal: %+v vs %+v",
			external, internal)
	}
	if !(internal.ThroughputTPS < none.ThroughputTPS) {
		t.Fatalf("internal collection is not free: %+v vs %+v", internal, none)
	}
}
