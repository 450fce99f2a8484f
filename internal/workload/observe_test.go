package workload

import (
	"bytes"
	"reflect"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/kernel"
	"tscout/internal/wal"
)

// TestObservingChangesNoVirtualTime runs one seeded, instrumented TATP run
// twice, the second with a kernel event stream attached and sized so that
// nothing drops. No producer charges virtual time or draws noise, so the
// two runs' Results (ProcessorStats included) and archives must be equal.
func TestObservingChangesNoVirtualTime(t *testing.T) {
	const txns, capacity = 300, 1 << 15
	run := func(observe bool) (Result, []byte, int) {
		arch := newTestArchive(0)
		srv, err := dbms.NewServer(dbms.Config{
			Seed: 21, NoiseSigma: 0.03, Instrument: true, Sink: arch.w,
			WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 200_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := &TATP{Subscribers: 200}
		if err := gen.Setup(srv); err != nil {
			t.Fatal(err)
		}
		srv.TS.Sampler().SetAllRates(100)
		if observe {
			srv.Kernel.Observe(make([]kernel.Event, 0, capacity))
		}
		res, err := Run(srv, gen, Config{Terminals: 20, Transactions: txns, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		evs, dropped := srv.Kernel.Observe(nil)
		if dropped != 0 {
			t.Fatalf("the event stream dropped %d events", dropped)
		}
		if err := arch.w.Flush(); err != nil {
			t.Fatal(err)
		}
		return res, arch.buf.Bytes(), len(evs)
	}
	plain, plainArchive, _ := run(false)
	seen, seenArchive, events := run(true)
	if events == 0 || seen.TrainingPoints == 0 {
		t.Fatalf("the observed run put %d events on the stream and produced %d points", events, seen.TrainingPoints)
	}
	if !reflect.DeepEqual(plain, seen) {
		t.Fatalf("observing changed the run:\nplain    %+v\nobserved %+v", plain, seen)
	}
	if !bytes.Equal(plainArchive, seenArchive) {
		t.Fatalf("observing changed the archive: %d bytes plain, %d observed", len(plainArchive), len(seenArchive))
	}
	t.Logf("%d transactions, %d points, %d events", txns, seen.TrainingPoints, events)
}
