package workload

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

var update = flag.Bool("update", false, "rewrite testdata/golden*.txt from this run")

// testArchive is a test server's training store: a segment writer over
// memory, handed to the server as dbms.Config.Sink and read back after the
// run — the only place the run's training points exist.
type testArchive struct {
	buf bytes.Buffer
	w   *archive.Writer
}

// newTestArchive seals rowsPerSegment-row segments (0 = the default).
func newTestArchive(rowsPerSegment int) *testArchive {
	a := &testArchive{}
	a.w = archive.NewWriterSize(&a.buf, rowsPerSegment)
	return a
}

// points flushes the writer and decodes the archive in sink order.
func (a *testArchive) points(t *testing.T) []tscout.TrainingPoint {
	t.Helper()
	if err := a.w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(a.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// goldenFingerprint is the FNV-64a of a run's latency and volume scalars
// plus every training point the sink received, in order.
func goldenFingerprint(res Result, pts []tscout.TrainingPoint) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "completed=%d aborted=%d elapsed=%d tps=%.9g p50=%d p99=%d mean=%d points=%d sps=%.9g\n",
		res.Completed, res.Aborted, res.ElapsedNS, res.ThroughputTPS,
		res.P50NS, res.P99NS, res.MeanNS, res.TrainingPoints, res.SamplesPerSec)
	for _, p := range pts {
		fmt.Fprintf(h, "%d|%s|%d|%d|%v|%+v\n", p.OU, p.OUName, int(p.Subsystem), p.PID, p.Features, p.Metrics)
	}
	return h.Sum64()
}

// goldenRun executes the canonical TPC-C run — seed 77, 4 terminals, 300
// transactions, 3% measurement noise, one CPU, every subsystem sampled at
// 100% — on the legacy driver (pool 0) or the pooled one, through an
// archive sealing rowsPerSegment-row segments (0 = default), and renders it.
func goldenRun(t *testing.T, rowsPerSegment, pool int) (Result, string) {
	t.Helper()
	arch := newTestArchive(rowsPerSegment)
	srv, err := dbms.NewServer(dbms.Config{
		Seed: 77, NoiseSigma: 0.03, Instrument: true,
		Sink: arch.w,
		WAL:  wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	gen := &TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
	if err := gen.Setup(srv); err != nil {
		t.Fatalf("setup: %v", err)
	}
	srv.TS.Sampler().SetAllRates(100)
	res, err := Run(srv, gen, Config{Terminals: 4, Transactions: 300, Seed: 77, PoolSessions: pool})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, renderGolden(srv, res, arch.points(t))
}

// renderGolden writes a run one fact a line, each led by what it describes,
// so a diff of two renders names the OUs and counters that moved. Result's
// arrays (per subsystem, per CPU, per batch size) are left out; the
// subsystem lines carry the per-subsystem counters a re-pin moves.
func renderGolden(srv *dbms.Server, res Result, pts []tscout.TrainingPoint) string {
	var b strings.Builder
	var scalars func(prefix string, v reflect.Value)
	scalars = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			switch {
			case f.Kind() == reflect.Struct && prefix == "":
				scalars(name+".", f)
			case f.Kind() == reflect.Array || f.Kind() == reflect.Slice:
			default:
				fmt.Fprintf(&b, "result %s %+v\n", name, f)
			}
		}
	}
	scalars("", reflect.ValueOf(res))

	rest := append([]tscout.TrainingPoint(nil), pts...)
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].OU < rest[j].OU })
	for len(rest) > 0 {
		n := sort.Search(len(rest), func(i int) bool { return rest[i].OU != rest[0].OU })
		group, name := rest[:n], rest[0].OUName
		rest = rest[n:]
		fmt.Fprintf(&b, "ou %s points %d\n", name, len(group))
		for m, metric := range tscout.MetricNames {
			sum, top := int64(0), int64(math.MinInt64)
			for _, p := range group {
				v := reflect.ValueOf(p.Metrics).Field(m).Convert(reflect.TypeOf(sum)).Int()
				sum, top = sum+v, max(top, v)
			}
			fmt.Fprintf(&b, "ou %s %s sum %d max %d\n", name, metric, sum, top)
		}
		for f, feature := range group[0].FeatureNames {
			sum, top := 0.0, math.Inf(-1)
			for _, p := range group {
				sum, top = sum+p.Features[f], max(top, p.Features[f])
			}
			fmt.Fprintf(&b, "ou %s %s sum %v max %v\n", name, feature, sum, top)
		}
	}

	for _, sub := range tscout.AllSubsystems {
		k := srv.TS.Processor().Stats().Kernel[sub]
		fmt.Fprintf(&b, "subsystem %s submitted %d dropped %d orphans %+v rate %d\n",
			sub, k.Submitted, k.Dropped, k.Orphans, srv.TS.Sampler().Rate(sub))
	}
	flushes, records, walBytes := srv.WAL.Stats()
	fmt.Fprintf(&b, "wal flushes %d records %d bytes %d\n", flushes, records, walBytes)
	fmt.Fprintf(&b, "kernel noise_draws %v\n", srv.Kernel.NoiseDraws())
	fmt.Fprintf(&b, "fnv64a of the result and every point, in sink order:\n%#x\n", goldenFingerprint(res, pts))
	return b.String()
}

// checkGolden compares a render with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test ./internal/workload -run GoldenFingerprint -update writes it)", err)
	}
	if want := string(raw); got != want {
		t.Errorf("%s moved (go test ./internal/workload -run GoldenFingerprint -update rewrites it):\n%s",
			path, lineDiff(want, got))
	}
}

// lineDiff lists want's lines that got lacks ("-"), then got's lines that
// want lacks ("+"): every line is led by its key, so that names what moved.
func lineDiff(want, got string) string {
	var b strings.Builder
	for _, side := range [][3]string{{"-", want, got}, {"+", got, want}} {
		for _, l := range strings.Split(side[1], "\n") {
			if !strings.Contains("\n"+side[2]+"\n", "\n"+l+"\n") {
				fmt.Fprintf(&b, "%s %s\n", side[0], l)
			}
		}
	}
	return b.String()
}

// TestSingleCPUGoldenFingerprint pins the canonical run on the legacy
// driver to testdata/golden.txt, whose last line is the single-clock
// fingerprint 0xbd52615ba4813889.
func TestSingleCPUGoldenFingerprint(t *testing.T) {
	_, text := goldenRun(t, 0, 0)
	checkGolden(t, "golden.txt", text)
}

// TestSegmentSinkGoldenFingerprint re-runs the legacy canonical run sealing
// a segment every 64 rows — 174 segments instead of the default writer's 3.
// It must not move a Result field or a line of golden.txt: sink delivery
// happens outside the simulated clock, and encode → seal → decode neither
// loses nor reorders a point, wherever the segment boundaries fall.
func TestSegmentSinkGoldenFingerprint(t *testing.T) {
	legacy, text := goldenRun(t, 0, 0)
	segmented, segText := goldenRun(t, 64, 0)
	if !reflect.DeepEqual(legacy, segmented) || segText != text {
		t.Fatalf("the 64-row-segment rerun moved:\n%+v\n%+v\n%s", legacy, segmented, lineDiff(text, segText))
	}
	checkGolden(t, "golden.txt", segText)
}

// TestPooledGoldenFingerprint pins the canonical run on the pooled driver at
// PoolSessions 4 to testdata/golden_pooled.txt.
func TestPooledGoldenFingerprint(t *testing.T) {
	_, text := goldenRun(t, 0, 4)
	checkGolden(t, "golden_pooled.txt", text)
}

// TestRunsAreDeterministic validates the repository's core methodological
// claim (DESIGN.md): a run is a function of its seed, so two identical
// legacy runs agree on every Result field and render byte-equal, every
// point's OU, metrics and features included.
func TestRunsAreDeterministic(t *testing.T) {
	r1, text1 := goldenRun(t, 0, 0)
	r2, text2 := goldenRun(t, 0, 0)
	if !reflect.DeepEqual(r1, r2) || text1 != text2 {
		t.Fatalf("identical runs differ:\n%+v\n%+v\n%s", r1, r2, lineDiff(text1, text2))
	}
}

// TestDifferentSeedsDiffer guards the other direction: the seed actually
// drives the workload (identical results across seeds would mean the
// randomness is wired up wrong).
func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) Result {
		srv := newServer(t, false)
		gen := &YCSB{Records: 500}
		if err := gen.Setup(srv); err != nil {
			t.Fatal(err)
		}
		res, err := Run(srv, gen, Config{Terminals: 4, Transactions: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run(1).ElapsedNS == run(2).ElapsedNS {
		t.Fatalf("different seeds should produce different timelines")
	}
}
