package runner

import (
	"bytes"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

// offlineServer returns an instrumented synchronous-WAL server whose
// training points go to an in-memory archive, and a function that drains
// the rings and reads the archive back.
func offlineServer(t *testing.T) (*dbms.Server, func() []tscout.TrainingPoint) {
	t.Helper()
	var buf bytes.Buffer
	w := archive.NewWriter(&buf)
	srv, err := dbms.NewServer(dbms.Config{
		Seed:       3,
		Instrument: true,
		Sink:       w,
		WAL:        wal.Config{Synchronous: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, func() []tscout.TrainingPoint {
		t.Helper()
		srv.TS.Processor().Drain(tscout.DrainOptions{})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := archive.NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		pts, err := r.Points()
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
}

func TestRunAllGeneratesAllSubsystems(t *testing.T) {
	srv, points := offlineServer(t)
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
	pts := points()
	if len(pts) < 200 {
		t.Fatalf("too little offline data: %d points", len(pts))
	}
	bySub := map[tscout.SubsystemID]int{}
	ous := map[string]bool{}
	for _, p := range pts {
		bySub[p.Subsystem]++
		ous[p.OUName] = true
	}
	for _, sub := range tscout.AllSubsystems {
		if bySub[sub] == 0 {
			t.Fatalf("no runner data for %v: %v", sub, bySub)
		}
	}
	for _, want := range []string{
		"seq_scan", "index_scan", "filter", "hash_join", "aggregate",
		"sort", "insert", "update", "delete", "output",
		"net_read", "net_write", "log_serializer", "disk_writer",
	} {
		if !ous[want] {
			t.Fatalf("runner never exercised OU %s: %v", want, ous)
		}
	}
}

func TestRunAllRequiresInstrumentation(t *testing.T) {
	srv, err := dbms.NewServer(dbms.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunAll(srv, Config{}); err == nil {
		t.Fatalf("uninstrumented server must be rejected")
	}
}

func TestRunAllSweepsFeatureSpace(t *testing.T) {
	srv, points := offlineServer(t)
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
	// The seq_scan OU must have been exercised across multiple table
	// sizes (the sweep that makes runner data robust, §2.4).
	sizes := map[uint64]bool{}
	for _, p := range points() {
		if p.OUName == "seq_scan" && len(p.Features) > 0 {
			sizes[uint64(p.Features[0])] = true
		}
	}
	if len(sizes) < 4 {
		t.Fatalf("scan sweep must cover multiple cardinalities: %v", sizes)
	}
}

func TestOfflineWALBatchesAreSingletons(t *testing.T) {
	srv, points := offlineServer(t)
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
	// Synchronous offline config: every serializer sample is one txn —
	// the exact blind spot §6.5 attributes to offline runners.
	for _, p := range points() {
		if p.Subsystem == tscout.SubsystemLogSerializer && len(p.Features) >= 3 && p.Features[2] > 1 {
			t.Fatalf("offline flush with %v txns; group commit must not batch", p.Features[2])
		}
	}
}

func TestRunAllIdempotentSetup(t *testing.T) {
	srv, _ := offlineServer(t)
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
	// A second pass reuses the tables rather than failing on CREATE.
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
}
