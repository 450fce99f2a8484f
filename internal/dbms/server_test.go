package dbms

import (
	"bytes"
	"strings"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/network"
	"tscout/internal/storage"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

func newTestServer(t *testing.T, instrument bool) *Server {
	t.Helper()
	return newTestServerSink(t, instrument, nil)
}

// archiveServer is an instrumented test server whose training points go to
// an in-memory archive; reader drains the rings and reopens the archive.
type archiveServer struct {
	*Server
	buf bytes.Buffer
	w   *archive.Writer
}

func newArchiveServer(t *testing.T) *archiveServer {
	t.Helper()
	as := &archiveServer{}
	as.w = archive.NewWriter(&as.buf)
	as.Server = newTestServerSink(t, true, as.w)
	return as
}

func (as *archiveServer) reader(t *testing.T) *archive.Reader {
	t.Helper()
	as.TS.Processor().Drain(tscout.DrainOptions{})
	if err := as.w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(append([]byte(nil), as.buf.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newArchivingServer is an archiveServer and the function that reads back
// every training point archived so far.
func newArchivingServer(t *testing.T) (*Server, func() []tscout.TrainingPoint) {
	t.Helper()
	as := newArchiveServer(t)
	return as.Server, func() []tscout.TrainingPoint {
		t.Helper()
		pts, err := as.reader(t).Points()
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
}

func newTestServerSink(t *testing.T, instrument bool, sink tscout.Sink) *Server {
	t.Helper()
	srv, err := NewServer(Config{
		Seed:       1,
		Instrument: instrument,
		Sink:       sink,
		WAL:        wal.Config{GroupSize: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Catalog.CreateTable("kv", storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "v", Kind: storage.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Catalog.CreateBTreeIndex("kv_pk", "kv", []string{"k"}, []uint{32}, true); err != nil {
		t.Fatal(err)
	}
	if instrument {
		srv.TS.Sampler().SetAllRates(100)
	}
	return srv
}

func TestPacketRoundTrip(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()

	pr := se.SubmitPacket(network.EncodeQuery("INSERT INTO kv VALUES (1, 'hello')"))
	if pr.Err != nil {
		t.Fatalf("insert: %+v", pr)
	}
	if pr.Commit == nil || !pr.Commit.Resolved {
		t.Fatalf("writing txn must produce a resolved commit (synchronous WAL): %+v", pr.Commit)
	}

	pr = se.SubmitPacket(network.EncodeQuery("SELECT v FROM kv WHERE k = 1"))
	if pr.Err != nil {
		t.Fatal(pr.Err)
	}
	if pr.Commit != nil {
		t.Fatalf("read-only txn must not hit the WAL")
	}
	msgs, err := network.Decode(se.reply)
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].Type != network.MsgResult || !strings.Contains(string(msgs[0].Payload), "hello") {
		t.Fatalf("response: %q", msgs[0].Payload)
	}
}

func TestMultiQueryPacket(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	pr := se.SubmitPacket(network.EncodeScript(
		"INSERT INTO kv VALUES (1, 'a')",
		"INSERT INTO kv VALUES (2, 'b')",
		"SELECT COUNT(*) FROM kv",
	))
	if pr.Err != nil {
		t.Fatal(pr.Err)
	}
	if len(pr.Results) != 3 {
		t.Fatalf("results: %d", len(pr.Results))
	}
	if pr.Results[2].Rows[0][0].AsInt() != 2 {
		t.Fatalf("count: %+v", pr.Results[2].Rows)
	}
	msgs, _ := network.Decode(se.reply)
	if len(msgs) != 3 {
		t.Fatalf("response messages: %d", len(msgs))
	}
}

func TestStatementErrorAbortsTransaction(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	pr := se.SubmitPacket(network.EncodeScript(
		"INSERT INTO kv VALUES (9, 'x')",
		"SELECT * FROM nosuch",
	))
	if pr.Err == nil {
		t.Fatalf("must abort: %+v", pr)
	}
	msgs, _ := network.Decode(se.reply)
	last := msgs[len(msgs)-1]
	if last.Type != network.MsgError {
		t.Fatalf("error response expected: %+v", msgs)
	}
	// The first statement's insert must have rolled back.
	pr2 := se.SubmitPacket(network.EncodeQuery("SELECT COUNT(*) FROM kv"))
	if pr2.Results[0].Rows[0][0].AsInt() != 0 {
		t.Fatalf("abort must roll back the whole packet: %+v", pr2.Results[0].Rows)
	}
}

func TestMalformedPacket(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	pr := se.SubmitPacket([]byte{1, 2, 3})
	if pr.Err == nil {
		t.Fatalf("malformed packet must error")
	}
	pr2 := se.SubmitPacket(network.Encode(network.Message{Type: 'Z', Payload: nil}))
	if pr2.Err == nil {
		t.Fatalf("unknown message type must error")
	}
}

func TestSessionExecuteWithParams(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	if _, err := se.Execute("INSERT INTO kv VALUES ($1, $2)",
		storage.NewInt(5), storage.NewString("five")); err != nil {
		t.Fatal(err)
	}
	res, err := se.Execute("SELECT v FROM kv WHERE k = $1", storage.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "five" {
		t.Fatalf("param query: %+v", res.Rows)
	}
	if _, err := se.Execute("SELEC nonsense"); err == nil {
		t.Fatalf("parse error must propagate")
	}
}

func TestInstrumentedServerCollectsAllSubsystems(t *testing.T) {
	srv, points := newArchivingServer(t)
	se := srv.NewSession()
	for i := 0; i < 5; i++ {
		pr := se.SubmitPacket(network.EncodeQuery(
			"INSERT INTO kv VALUES (" + string(rune('0'+i)) + ", 'v')"))
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
	}
	se.SubmitPacket(network.EncodeQuery("SELECT COUNT(*) FROM kv"))
	pts := points()
	bySub := map[tscout.SubsystemID]int{}
	for _, p := range pts {
		bySub[p.Subsystem]++
	}
	for _, sub := range tscout.AllSubsystems {
		if bySub[sub] == 0 {
			t.Fatalf("subsystem %v produced no training data: %v", sub, bySub)
		}
	}
	for _, p := range pts {
		// Networking points must carry socket metrics.
		if p.OUName == "net_read" && p.Metrics.NetRecvBytes == 0 {
			t.Fatalf("net_read without recv bytes: %+v", p)
		}
		// Disk writer points must carry IO metrics.
		if p.Subsystem == tscout.SubsystemDiskWriter && p.Metrics.DiskWriteBytes == 0 {
			t.Fatalf("disk_writer without write bytes: %+v", p)
		}
	}
}

func TestUninstrumentedFasterThanInstrumented(t *testing.T) {
	run := func(instrument bool) int64 {
		srv := newTestServer(t, instrument)
		se := srv.NewSession()
		loader := srv.NewSession()
		for i := 0; i < 2000; i++ {
			if _, err := loader.Execute("INSERT INTO kv VALUES ($1, 'padpadpadpadpad')",
				storage.NewInt(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			pr := se.SubmitPacket(network.EncodeQuery("SELECT COUNT(*) FROM kv"))
			if pr.Err != nil {
				t.Fatal(pr.Err)
			}
		}
		return se.Task.Now()
	}
	plain := run(false)
	traced := run(true)
	if traced <= plain {
		t.Fatalf("full-rate collection must cost something: %d vs %d", traced, plain)
	}
	overhead := float64(traced-plain) / float64(plain)
	if overhead > 0.6 {
		t.Fatalf("overhead unreasonably high for scan-heavy queries: %.2f", overhead)
	}
}

func TestDefaultProfileIsLargeHW(t *testing.T) {
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Kernel.Profile.Name != "large-hw" {
		t.Fatalf("default profile: %s", srv.Kernel.Profile.Name)
	}
}
