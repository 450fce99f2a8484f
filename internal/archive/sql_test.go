package archive

import (
	"bytes"
	"encoding/csv"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tscout/internal/catalog"
	"tscout/internal/exec"
	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/txn"
)

// queryArchive runs one SQL statement against a catalog with the archive
// mounted.
func queryArchive(t *testing.T, cat *catalog.Catalog, q string) *exec.Result {
	t.Helper()
	eng, err := exec.New(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	k := kernel.New(sim.LargeHW, 1, 0)
	tx := txn.NewManager().Begin()
	p, err := eng.Prepare(stmt)
	if err != nil {
		t.Fatalf("prepare %q: %v", q, err)
	}
	res, err := eng.Run(&exec.Ctx{Task: k.NewTask("q"), Txn: tx}, p, nil)
	if err != nil {
		t.Fatalf("execute %q: %v", q, err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSQLOverArchive cross-checks GROUP BY over the mounted virtual table
// against the same aggregation computed from the CSV export — the
// acceptance identity for the in-database query surface.
func TestSQLOverArchive(t *testing.T) {
	pts := makePoints(400)
	r, err := NewReader(writeArchive(t, pts, 64))
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if _, err := Mount(cat, r); err != nil {
		t.Fatal(err)
	}

	res := queryArchive(t, cat,
		"SELECT ou_name, count(*), avg(elapsed_ns) FROM tscout_archive WHERE subsystem = '"+
			pts[0].Subsystem.String()+"' GROUP BY ou_name")

	// Recompute from the CSV export.
	var buf bytes.Buffer
	if _, err := ExportCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header, rows := recs[0], recs[1:]
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("no CSV column %q", name)
		return -1
	}
	ouNameCol, subCol, elapsedCol := col("ou_name"), col("subsystem"), col("elapsed_ns")
	type agg struct {
		count int64
		sum   float64
	}
	want := map[string]*agg{}
	for _, rec := range rows {
		if rec[subCol] != pts[0].Subsystem.String() {
			continue
		}
		a := want[rec[ouNameCol]]
		if a == nil {
			a = &agg{}
			want[rec[ouNameCol]] = a
		}
		a.count++
		v, err := strconv.ParseFloat(rec[elapsedCol], 64)
		if err != nil {
			t.Fatal(err)
		}
		a.sum += v
	}

	if len(res.Rows) != len(want) {
		t.Fatalf("SQL returned %d groups, CSV has %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		name := row[0].Str()
		a, ok := want[name]
		if !ok {
			t.Fatalf("SQL group %q not in CSV aggregation", name)
		}
		if row[1].AsInt() != a.count {
			t.Errorf("group %q: count %d, CSV says %d", name, row[1].AsInt(), a.count)
		}
		gotAvg := row[2].AsFloat()
		wantAvg := a.sum / float64(a.count)
		if gotAvg != wantAvg {
			t.Errorf("group %q: avg %v, CSV says %v", name, gotAvg, wantAvg)
		}
	}
}

// TestSQLPointQueries exercises projections, predicates that survive
// pushdown, and ORDER BY over the mount.
func TestSQLPointQueries(t *testing.T) {
	pts := makePoints(120)
	r, err := NewReader(writeArchive(t, pts, 30))
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if _, err := Mount(cat, r); err != nil {
		t.Fatal(err)
	}

	res := queryArchive(t, cat, "SELECT count(*) FROM tscout_archive")
	if got := res.Rows[0][0].AsInt(); got != 120 {
		t.Fatalf("count(*) = %d, want 120", got)
	}

	res = queryArchive(t, cat, "SELECT count(*) FROM tscout_archive WHERE ou_name = 'scan'")
	if got := res.Rows[0][0].AsInt(); got != 40 {
		t.Fatalf("count scan = %d, want 40", got)
	}

	// Row-granular predicate: zone maps cannot fully resolve pid ranges,
	// so the executor's residual filter must finish the job.
	wantPID := 0
	for i := range pts {
		if pts[i].PID > 100 && pts[i].PID <= 110 {
			wantPID++
		}
	}
	res = queryArchive(t, cat,
		"SELECT count(*) FROM tscout_archive WHERE pid > 100 AND pid <= 110")
	if got := res.Rows[0][0].AsInt(); got != int64(wantPID) {
		t.Fatalf("pid range count = %d, want %d", got, wantPID)
	}

	res = queryArchive(t, cat,
		"SELECT ou_name, max(alloc_bytes) FROM tscout_archive GROUP BY ou_name ORDER BY ou_name")
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].Str() >= res.Rows[i][0].Str() {
			t.Fatalf("ORDER BY violated: %v", res.Rows)
		}
	}
}

// TestArchiveIsReadOnly confirms DML and DDL against the mount fail.
func TestArchiveIsReadOnly(t *testing.T) {
	pts := makePoints(10)
	r, err := NewReader(writeArchive(t, pts, 100))
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if _, err := Mount(cat, r); err != nil {
		t.Fatal(err)
	}
	eng, err := exec.New(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(sim.LargeHW, 1, 0)
	for _, q := range []string{
		"INSERT INTO tscout_archive (ou) VALUES (1)",
		"UPDATE tscout_archive SET pid = 0 WHERE ou = 1",
		"DELETE FROM tscout_archive WHERE ou = 1",
		"CREATE INDEX bad ON tscout_archive (ou)",
	} {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		tx := txn.NewManager().Begin()
		p, err := eng.Prepare(stmt)
		if err == nil {
			_, err = eng.Run(&exec.Ctx{Task: k.NewTask("q"), Txn: tx}, p, nil)
		}
		if err == nil {
			t.Fatalf("%q succeeded against read-only archive", q)
		}
	}
	if _, err := cat.CreateHashIndex("bad2", TableName, []string{"ou"}, false); err == nil {
		t.Fatal("catalog allowed index on virtual table")
	}
	if _, err := Mount(cat, r); err == nil {
		t.Fatal("double mount succeeded")
	}
}

// TestExplainVirtualScan checks EXPLAIN renders the virtual access path.
func TestExplainVirtualScan(t *testing.T) {
	pts := makePoints(10)
	r, err := NewReader(writeArchive(t, pts, 100))
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if _, err := Mount(cat, r); err != nil {
		t.Fatal(err)
	}
	res := queryArchive(t, cat, "EXPLAIN SELECT pid FROM tscout_archive WHERE ou = 1")
	var plan []string
	for _, row := range res.Rows {
		plan = append(plan, row[0].Str())
	}
	joined := strings.Join(plan, "\n")
	if !strings.Contains(joined, "Virtual Scan on tscout_archive") {
		t.Fatalf("EXPLAIN missing virtual scan line:\n%s", joined)
	}
}

// TestNestedScansKeepTheirColumns: each Blocks call owns its Block, so a
// scan nested inside another's callback (a self-join of the mount) leaves
// the outer block's decoded columns as they were.
func TestNestedScansKeepTheirColumns(t *testing.T) {
	pts := makePoints(300)
	r, err := NewReader(writeArchive(t, pts, 64))
	if err != nil {
		t.Fatal(err)
	}
	r.Blocks(func(outer *Block) bool {
		idx, err := outer.RowIndexes()
		if err != nil {
			t.Fatal(err)
		}
		elapsed, err := outer.Metric(0)
		if err != nil {
			t.Fatal(err)
		}
		wantIdx, wantElapsed := slices.Clone(idx), slices.Clone(elapsed)
		r.Blocks(func(inner *Block) bool {
			if _, err := inner.RowIndexes(); err != nil {
				t.Fatal(err)
			}
			_, err := inner.Metric(0)
			return err == nil
		})
		if !slices.Equal(idx, wantIdx) || !slices.Equal(elapsed, wantElapsed) {
			t.Fatal("an inner scan overwrote the outer block's columns")
		}
		return true
	})

	cat := catalog.New()
	if _, err := Mount(cat, r); err != nil {
		t.Fatal(err)
	}
	res := queryArchive(t, cat,
		"SELECT count(*) FROM tscout_archive a JOIN tscout_archive b ON a.elapsed_ns = b.elapsed_ns")
	if got := res.Rows[0][0].AsInt(); got != int64(len(pts)) {
		t.Fatalf("self-join on elapsed_ns counted %d rows, want %d (each row with itself)", got, len(pts))
	}
}
