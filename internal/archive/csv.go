package archive

import (
	"encoding/csv"
	"io"
	"strconv"

	"tscout/internal/tscout"
)

// ExportCSV losslessly re-exports an archive as CSV, one row per point —
// the interchange path behind `tsctl archive export -csv`, in the schema
// NoisePage's model-training pipeline consumed. Columns: ou, ou_name,
// subsystem, pid, the 11 metrics of tscout.MetricNames, then the features
// cell (appendFeatureCell; feature sets differ per OU).
func ExportCSV(r *Reader, w io.Writer) (int64, error) {
	pts, err := r.Points()
	if err != nil {
		return 0, err
	}
	cw := csv.NewWriter(w)
	row := append([]string{"ou", "ou_name", "subsystem", "pid"}, tscout.MetricNames[:]...)
	if err := cw.Write(append(row, "features")); err != nil {
		return 0, err
	}
	var cell []byte
	for i := range pts {
		p := &pts[i]
		cell = appendFeatureCell(cell[:0], p.FeatureNames, p.Features)
		row = append(row[:0],
			strconv.Itoa(int(p.OU)), p.OUName, p.Subsystem.String(), strconv.Itoa(p.PID))
		for m, v := range p.Metrics.Values() {
			if tscout.MetricIsCounter(m) {
				row = append(row, strconv.FormatUint(uint64(v), 10))
			} else {
				row = append(row, strconv.FormatInt(v, 10))
			}
		}
		row = append(row, string(cell))
		if err := cw.Write(row); err != nil {
			return 0, err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return 0, err
	}
	return int64(len(pts)), nil
}

// appendFeatureCell appends the canonical features-cell encoding to dst:
// semicolon-separated name=value pairs, values in Go %g (shortest
// round-trippable) form, names falling back to f<i> when the point carries
// fewer names than features. ExportCSV and the virtual table's `features`
// column share this one encoder so the two surfaces stay bit-identical.
func appendFeatureCell(dst []byte, names []string, feats []float64) []byte {
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
