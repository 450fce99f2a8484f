package tscout

import (
	"encoding/csv"
	"io"
	"strconv"
	"sync"
)

// CSVSink streams training points to an io.Writer as CSV, one row per
// point — the "write it to the appropriate output target" role of the
// Processor (§3.2). The binary segment archive (internal/archive) is the
// primary output format; CSV survives as the export/interchange format
// behind the same batch-first Sink API, matching what NoisePage's
// model-training pipeline consumed.
//
// Columns: ou, ou_name, subsystem, pid, the 11 metrics of MetricNames,
// then feature values paired as name=value (feature sets differ per OU).
//
// A write error is permanent: csv.Writer sits on a bufio.Writer, which
// returns its first write error from every later write. CSVSink says so
// through StickySink, so the Processor fails deliveries fast instead of
// retrying them.
type CSVSink struct {
	mu      sync.Mutex
	w       *csv.Writer // guarded by mu
	n       int64       // guarded by mu
	scratch []byte      // guarded by mu — reused feature-cell buffer
}

var _ StickySink = (*CSVSink)(nil)

// NewCSVSink creates a sink and writes the header row.
func NewCSVSink(w io.Writer) (*CSVSink, error) {
	cw := csv.NewWriter(w)
	header := append([]string{"ou", "ou_name", "subsystem", "pid"}, MetricNames...)
	header = append(header, "features")
	if err := cw.Write(header); err != nil {
		return nil, err
	}
	return &CSVSink{w: cw}, nil
}

// WriteBatch implements Sink: the whole batch is written under one lock
// acquisition, so the Processor pays the synchronization cost once per
// flush rather than once per point.
func (s *CSVSink) WriteBatch(pts []TrainingPoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range pts {
		if err := s.writeLocked(p); err != nil {
			return err
		}
	}
	return nil
}

func (s *CSVSink) writeLocked(p TrainingPoint) error {
	m := p.Metrics
	row := []string{
		strconv.Itoa(int(p.OU)), p.OUName, p.Subsystem.String(), strconv.Itoa(p.PID),
		strconv.FormatInt(m.ElapsedNS, 10),
		strconv.FormatUint(m.Cycles, 10),
		strconv.FormatUint(m.Instructions, 10),
		strconv.FormatUint(m.CacheRefs, 10),
		strconv.FormatUint(m.CacheMisses, 10),
		strconv.FormatUint(m.RefCycles, 10),
		strconv.FormatInt(m.DiskReadBytes, 10),
		strconv.FormatInt(m.DiskWriteBytes, 10),
		strconv.FormatInt(m.NetRecvBytes, 10),
		strconv.FormatInt(m.NetSendBytes, 10),
		strconv.FormatInt(m.AllocBytes, 10),
	}
	// Reuse one scratch buffer for the features cell: the old
	// string-concatenation build re-allocated and re-copied the prefix for
	// every feature (quadratic in vector width, two fmt allocations per
	// feature on top).
	s.scratch = AppendFeatureCell(s.scratch[:0], p.FeatureNames, p.Features)
	row = append(row, string(s.scratch))
	if err := s.w.Write(row); err != nil {
		return err
	}
	s.n++
	return nil
}

// AppendFeatureCell appends the canonical features-cell encoding to dst:
// semicolon-separated name=value pairs, values in Go %g (shortest
// round-trippable) form, names falling back to f<i> when the point carries
// fewer names than features. The CSV sink and the archive's virtual-table
// `features` column share this one encoder so the two surfaces stay
// bit-identical.
func AppendFeatureCell(dst []byte, names []string, feats []float64) []byte {
	for i, f := range feats {
		if i > 0 {
			dst = append(dst, ';')
		}
		if i < len(names) {
			dst = append(dst, names[i]...)
		} else {
			dst = append(dst, 'f')
			dst = strconv.AppendInt(dst, int64(i), 10)
		}
		dst = append(dst, '=')
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	return dst
}

// Flush forces buffered rows out and reports the first write error.
func (s *CSVSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Flush()
	return s.w.Error()
}

// StickyErr implements StickySink: the first error the underlying writer
// returned, which every later write would return again.
func (s *CSVSink) StickyErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Error()
}

// Rows returns the number of points written.
func (s *CSVSink) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
