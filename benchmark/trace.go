package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// tracer keeps the traced run's spans in memory. Every wrapper below runs
// on the one driver goroutine (the Processor delivers to the sink from the
// goroutine that called Drain), so the open-span stack needs no lock and
// the parent of a span is whatever was open when it began.
type tracer struct {
	t0      time.Time
	names   []string
	nameIdx map[string]int
	spans   []spanRec
	stack   []int
}

type spanRec struct {
	name       int
	start, end int64 // ns since t0
	parent     int   // index into spans, -1 for a root
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nameIdx: map[string]int{}}
}

// begin opens a span under the innermost open one. A nil tracer records
// nothing, so the loop can bracket its phases unconditionally.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	ni, ok := t.nameIdx[name]
	if !ok {
		ni = len(t.names)
		t.names = append(t.names, name)
		t.nameIdx[name] = ni
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{name: ni, start: int64(time.Since(t.t0)), parent: parent})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// durations returns every span of the name, in nanoseconds, sorted.
func (t *tracer) durations(name string) []int64 {
	ni, ok := t.nameIdx[name]
	if !ok {
		return nil
	}
	var out []int64
	for _, s := range t.spans {
		if s.name == ni {
			out = append(out, s.end-s.start)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *tracer) totalS(name string) float64 {
	var sum int64
	for _, d := range t.durations(name) {
		sum += d
	}
	return float64(sum) / 1e9
}

func (t *tracer) count(name string) int { return len(t.durations(name)) }

// selfS is the layer's self time: its spans' duration minus the part their
// direct children cover.
func (t *tracer) selfS(name string) float64 {
	ni, ok := t.nameIdx[name]
	if !ok {
		return 0
	}
	var self int64
	for _, s := range t.spans {
		switch {
		case s.name == ni:
			self += s.end - s.start
		case s.parent >= 0 && t.spans[s.parent].name == ni:
			self -= s.end - s.start
		}
	}
	return float64(self) / 1e9
}

// pctUS is the q-quantile of the name's span durations in microseconds.
func (t *tracer) pctUS(name string, q float64) float64 {
	d := t.durations(name)
	if len(d) == 0 {
		return 0
	}
	return float64(d[int(float64(len(d)-1)*q)]) / 1e3
}

// write stores the spans as {names, spans:[[name, start_ns, end_ns,
// parent], ...]}; the run id is the file: one traced run per workload.
func (t *tracer) write(dir, workloadName string, seed int64) error {
	rows := make([][4]int64, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [4]int64{int64(s.name), s.start, s.end, int64(s.parent)}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workloadName+".json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"run": workloadName, "seed": seed, "names": t.names, "spans": rows,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedGen spans every transaction the driver hands the generator.
type tracedGen struct {
	workload.Generator
	tr *tracer
}

func (g tracedGen) Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	sp := g.tr.begin("workload.txn")
	c, err := g.Generator.Txn(se, rng)
	g.tr.end(sp)
	return c, err
}

// tracedSink spans the Processor's deliveries into the archive writer. It
// forwards StickyErr so the Processor's sticky-sink fail-fast is unchanged,
// and it leaves the writer's seal listener to the controller.
type tracedSink struct {
	tscout.StickySink
	tr *tracer
}

func (s tracedSink) WriteBatch(pts []tscout.TrainingPoint) error {
	sp := s.tr.begin("archive.write_batch")
	err := s.StickySink.WriteBatch(pts)
	s.tr.end(sp)
	return err
}

// tracedWriter spans the writes that reach the archive's destination.
type tracedWriter struct {
	io.Writer
	tr *tracer
}

func (w tracedWriter) Write(p []byte) (int, error) {
	sp := w.tr.begin("archive.io_write")
	n, err := w.Writer.Write(p)
	w.tr.end(sp)
	return n, err
}

func tracedHook(tr *tracer, hook func(int64)) func(int64) {
	return func(now int64) {
		sp := tr.begin("autopilot.tick")
		hook(now)
		tr.end(sp)
	}
}
