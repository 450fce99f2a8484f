package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"testing"

	"tscout/internal/catalog"
	"tscout/internal/tscout"
)

// TestMetricLayout holds every surface a metric reaches to the one layout
// tscout owns. Each metric gets a value no other metric has, set through
// its named field (a counter gets 1<<63, a signed metric a negative value),
// and metric i must then arrive at sample word 4+i, in Block.Metric(i), in
// CSV column MetricNames[i] and in the SQL column of that name. A
// Values/MetricsOf pair that swapped two metrics consistently would still
// round-trip Points, so the test reads every surface by position or name.
func TestMetricLayout(t *testing.T) {
	m := tscout.Metrics{
		ElapsedNS:      11,
		Cycles:         1 << 63,
		Instructions:   33,
		CacheRefs:      44,
		CacheMisses:    55,
		RefCycles:      66,
		DiskReadBytes:  77,
		DiskWriteBytes: -88,
		NetRecvBytes:   99,
		NetSendBytes:   110,
		AllocBytes:     121,
	}
	// Each metric's bits as Values holds them, and its CSV text.
	type cell struct {
		bits uint64
		text string
	}
	want := map[string]cell{
		"elapsed_ns":       {11, "11"},
		"cpu_cycles":       {1 << 63, "9223372036854775808"},
		"instructions":     {33, "33"},
		"cache_refs":       {44, "44"},
		"cache_misses":     {55, "55"},
		"ref_cycles":       {66, "66"},
		"disk_read_bytes":  {77, "77"},
		"disk_write_bytes": {1<<64 - 88, "-88"},
		"net_recv_bytes":   {99, "99"},
		"net_send_bytes":   {110, "110"},
		"alloc_bytes":      {121, "121"},
	}
	if len(want) != tscout.NumMetrics {
		t.Fatalf("%d metrics named here, NumMetrics is %d", len(want), tscout.NumMetrics)
	}

	sample := tscout.EncodeSample(1, 7, m, nil)
	for i, name := range tscout.MetricNames {
		if got := binary.LittleEndian.Uint64(sample[(4+i)*8:]); got != want[name].bits {
			t.Errorf("sample word %d (%s) = %d, want %d", 4+i, name, got, want[name].bits)
		}
	}

	pt := tscout.TrainingPoint{OU: 1, OUName: "scan", PID: 7, Metrics: m}
	r, err := NewReader(writeArchive(t, []tscout.TrainingPoint{pt}, 1))
	if err != nil {
		t.Fatal(err)
	}
	r.Blocks(func(b *Block) bool {
		for i, name := range tscout.MetricNames {
			col, err := b.Metric(i)
			if err != nil {
				t.Fatal(err)
			}
			if len(col) != 1 || uint64(col[0]) != want[name].bits {
				t.Errorf("Block.Metric(%d) (%s) = %v, want [%d]", i, name, col, int64(want[name].bits))
			}
		}
		return true
	})
	pts, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Metrics != m {
		t.Errorf("Points = %+v, want one point with %+v", pts, m)
	}

	var buf bytes.Buffer
	if _, err := ExportCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("CSV has %d records, want header and one row", len(recs))
	}
	cols := map[string]string{}
	for c, h := range recs[0] {
		cols[h] = recs[1][c]
	}
	for _, name := range tscout.MetricNames {
		if cols[name] != want[name].text {
			t.Errorf("CSV column %s = %q, want %s", name, cols[name], want[name].text)
		}
	}

	cat := catalog.New()
	if _, err := Mount(cat, r); err != nil {
		t.Fatal(err)
	}
	for _, name := range tscout.MetricNames {
		res := queryArchive(t, cat, "SELECT "+name+" FROM tscout_archive")
		if len(res.Rows) != 1 || uint64(res.Rows[0][0].AsInt()) != want[name].bits {
			t.Errorf("SQL column %s = %v, want %d", name, res.Rows, int64(want[name].bits))
		}
	}
}
