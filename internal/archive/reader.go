package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"tscout/internal/tscout"
)

// ErrCorrupt wraps every malformed-input failure the reader reports, so
// callers can distinguish corruption from I/O errors with errors.Is.
var ErrCorrupt = errors.New("archive: corrupt segment")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Reader serves column-projected scans over a fully parsed archive (a
// concatenation of wire segments). Parsing validates structure and
// checksums eagerly but decodes column bytes lazily, per block, so a
// projected scan touches only the columns it needs. A Reader is
// immutable after NewReader.
type Reader struct {
	segs []segmentData
	rows int64
	size int64
}

// NewReader parses data as a sequence of segments. It never panics on
// hostile bytes: every length is bounds-checked against the bytes that
// actually back it before any allocation sized from it.
func NewReader(data []byte) (*Reader, error) {
	r := &Reader{size: int64(len(data))}
	var nextRow uint64
	for off := 0; off < len(data); {
		seg, n, err := parseSegment(data[off:])
		if err != nil {
			return nil, fmt.Errorf("segment %d at offset %d: %w", len(r.segs), off, err)
		}
		// Cross-segment row-index continuity: segments are sealed in
		// archive order, so indexes must keep ascending.
		for bi := range seg.blocks {
			if seg.blocks[bi].rowLo < nextRow {
				return nil, corruptf("segment %d block %d: row index %d rewinds below %d",
					len(r.segs), bi, seg.blocks[bi].rowLo, nextRow)
			}
		}
		for bi := range seg.blocks {
			if hi := seg.blocks[bi].rowHi; hi >= nextRow {
				nextRow = hi + 1
			}
		}
		r.segs = append(r.segs, seg)
		r.rows += seg.rows
		off += n
	}
	return r, nil
}

// parseSegment parses and checksum-verifies one segment at the front of
// data, returning its parsed form and on-wire size.
func parseSegment(data []byte) (segmentData, int, error) {
	var seg segmentData
	if len(data) < segHeaderBytes+segTrailerBytes {
		return seg, 0, corruptf("truncated header: %d bytes", len(data))
	}
	magic := binary.LittleEndian.Uint32(data[0:])
	version := binary.LittleEndian.Uint32(data[4:])
	payloadLen := int(binary.LittleEndian.Uint32(data[8:]))
	footerLen := int(binary.LittleEndian.Uint32(data[12:]))
	if magic != segMagic {
		return seg, 0, corruptf("bad magic 0x%08x", magic)
	}
	if version != segVersion {
		return seg, 0, corruptf("unsupported version %d", version)
	}
	total := segHeaderBytes + payloadLen + footerLen + segTrailerBytes
	if payloadLen < 0 || footerLen < 0 || total < 0 || total > len(data) {
		return seg, 0, corruptf("declared sizes exceed input (payload=%d footer=%d have=%d)",
			payloadLen, footerLen, len(data))
	}
	h := fnv.New64a()
	_, _ = h.Write(data[:total-segTrailerBytes])
	want := binary.LittleEndian.Uint64(data[total-segTrailerBytes:])
	if got := h.Sum64(); got != want {
		return seg, 0, corruptf("checksum mismatch: got 0x%016x want 0x%016x", got, want)
	}
	seg.payload = data[segHeaderBytes : segHeaderBytes+payloadLen]
	seg.wire = int64(total)
	if err := parseFooter(&seg, data[segHeaderBytes+payloadLen:total-segTrailerBytes]); err != nil {
		return seg, 0, err
	}
	return seg, total, nil
}

// footerReader is a bounds-checked cursor over footer bytes.
type footerReader struct {
	b   []byte
	err error
}

func (f *footerReader) uvarint() uint64 {
	if f.err != nil {
		return 0
	}
	v, n := binary.Uvarint(f.b)
	if n <= 0 {
		f.err = corruptf("footer: bad uvarint")
		return 0
	}
	f.b = f.b[n:]
	return v
}

func (f *footerReader) varint() int64 {
	if f.err != nil {
		return 0
	}
	v, n := binary.Varint(f.b)
	if n <= 0 {
		f.err = corruptf("footer: bad varint")
		return 0
	}
	f.b = f.b[n:]
	return v
}

func (f *footerReader) bytes(n int) []byte {
	if f.err != nil {
		return nil
	}
	if n < 0 || n > len(f.b) {
		f.err = corruptf("footer: %d bytes requested, %d left", n, len(f.b))
		return nil
	}
	out := f.b[:n]
	f.b = f.b[n:]
	return out
}

func (f *footerReader) float64() float64 {
	b := f.bytes(8)
	if f.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func parseFooter(seg *segmentData, footer []byte) error {
	fr := &footerReader{b: footer}

	// Dictionary. Each entry consumes at least one footer byte, so the
	// claimed count is implicitly bounded by the (checksummed) footer size;
	// entry bodies are bounds-checked by fr.bytes.
	nDict := fr.uvarint()
	if fr.err == nil && nDict > uint64(len(footer)) {
		return corruptf("dictionary count %d exceeds footer size %d", nDict, len(footer))
	}
	for i := uint64(0); i < nDict && fr.err == nil; i++ {
		n := fr.uvarint()
		if fr.err == nil && n > uint64(len(fr.b)) {
			return corruptf("dictionary entry %d: length %d exceeds remaining footer", i, n)
		}
		seg.dict = append(seg.dict, string(fr.bytes(int(n))))
	}

	totalRows := fr.uvarint()
	nBlocks := fr.uvarint()
	if fr.err != nil {
		return fr.err
	}
	// A legitimate block has at least one payload byte per row (the row
	// index column) and several footer bytes, so both counts are bounded
	// by the segment's actual size. This keeps hostile allocations small.
	if totalRows > uint64(len(seg.payload)) {
		return corruptf("row count %d exceeds payload size %d", totalRows, len(seg.payload))
	}
	if nBlocks > uint64(len(footer)) {
		return corruptf("block count %d exceeds footer size %d", nBlocks, len(footer))
	}
	seg.rows = int64(totalRows)

	var rowSum uint64
	for bi := uint64(0); bi < nBlocks; bi++ {
		var m blockMeta
		m.ou = fr.uvarint()
		nameIdx := fr.uvarint()
		m.sub = fr.uvarint()
		rows := fr.uvarint()
		off := fr.uvarint()
		ln := fr.uvarint()
		m.rowLo = fr.uvarint()
		m.rowHi = fr.uvarint()
		m.pidMin = fr.varint()
		m.pidMax = fr.varint()
		named := fr.uvarint()
		nFeat := fr.uvarint()
		if fr.err != nil {
			return fr.err
		}
		if nameIdx >= uint64(len(seg.dict)) {
			return corruptf("block %d: OU name index %d out of dictionary range %d", bi, nameIdx, len(seg.dict))
		}
		if rows == 0 || rows > totalRows {
			return corruptf("block %d: row count %d out of range (segment has %d)", bi, rows, totalRows)
		}
		if off > uint64(len(seg.payload)) || ln > uint64(len(seg.payload))-off {
			return corruptf("block %d: payload extent [%d,+%d) outside payload size %d", bi, off, ln, len(seg.payload))
		}
		if m.rowHi < m.rowLo {
			return corruptf("block %d: row range [%d,%d] inverted", bi, m.rowLo, m.rowHi)
		}
		if nFeat > tscout.MaxFeatures || named > nFeat {
			return corruptf("block %d: feature counts %d/%d exceed limit %d", bi, named, nFeat, tscout.MaxFeatures)
		}
		m.nameIdx = int(nameIdx)
		m.rows = int(rows)
		m.off = int(off)
		m.ln = int(ln)
		m.named = int(named)
		m.featIdx = make([]int, nFeat)
		for fi := range m.featIdx {
			di := fr.uvarint()
			if fr.err != nil {
				return fr.err
			}
			if di >= uint64(len(seg.dict)) {
				return corruptf("block %d: feature name index %d out of dictionary range %d", bi, di, len(seg.dict))
			}
			m.featIdx[fi] = int(di)
		}
		for mi := 0; mi < NumMetrics; mi++ {
			m.minVal[mi] = fr.varint()
			m.maxVal[mi] = fr.varint()
		}
		m.featMin = make([]float64, nFeat)
		m.featMax = make([]float64, nFeat)
		for fi := range m.featMin {
			m.featMin[fi] = fr.float64()
			m.featMax[fi] = fr.float64()
		}
		if fr.err != nil {
			return fr.err
		}
		rowSum += rows
		seg.blocks = append(seg.blocks, m)
	}
	if fr.err != nil {
		return fr.err
	}
	if rowSum != totalRows {
		return corruptf("block row counts sum to %d, footer claims %d", rowSum, totalRows)
	}
	if len(fr.b) != 0 {
		return corruptf("%d trailing footer bytes", len(fr.b))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Block access

// Block is a handle on one column block: fixed OU identity plus lazily
// decoded columns.
type Block struct {
	seg  *segmentData
	meta *blockMeta
	cols [][]byte // sliced column extents, parsed on first access

	rowIdx  []uint64
	pids    []int64
	metrics [NumMetrics][]int64
	feats   [][]float64
}

// OU returns the block's operating-unit id.
func (b *Block) OU() tscout.OUID { return tscout.OUID(b.meta.ou) }

// OUName returns the dictionary-decoded OU name.
func (b *Block) OUName() string { return b.seg.dict[b.meta.nameIdx] }

// Subsystem returns the block's subsystem id.
func (b *Block) Subsystem() tscout.SubsystemID { return tscout.SubsystemID(b.meta.sub) }

// NumRows returns the block's row count.
func (b *Block) NumRows() int { return b.meta.rows }

// NumFeatures returns the width of the block's feature vector.
func (b *Block) NumFeatures() int { return len(b.meta.featIdx) }

// FeatureName returns feature i's dictionary-decoded name.
func (b *Block) FeatureName(i int) string { return b.seg.dict[b.meta.featIdx[i]] }

// MetricRange returns the zone map for metric m (MetricNames order,
// unsigned counters reinterpreted as int64).
func (b *Block) MetricRange(m int) (lo, hi int64) { return b.meta.minVal[m], b.meta.maxVal[m] }

// PIDRange returns the block's PID zone map.
func (b *Block) PIDRange() (lo, hi int64) { return b.meta.pidMin, b.meta.pidMax }

// FeatureRange returns the zone map for feature i; (-Inf,+Inf) when the
// column contained NaNs.
func (b *Block) FeatureRange(i int) (lo, hi float64) { return b.meta.featMin[i], b.meta.featMax[i] }

// parseCols splits the block payload into per-column byte extents.
func (b *Block) parseCols() error {
	if b.cols != nil {
		return nil
	}
	data := b.seg.payload[b.meta.off : b.meta.off+b.meta.ln]
	nCols, n := binary.Uvarint(data)
	if n <= 0 {
		return corruptf("block: bad column count")
	}
	data = data[n:]
	want := uint64(2 + NumMetrics + len(b.meta.featIdx))
	if nCols != want {
		return corruptf("block: %d columns, layout requires %d", nCols, want)
	}
	lens := make([]int, nCols)
	var sum uint64
	for i := range lens {
		l, n := binary.Uvarint(data)
		if n <= 0 {
			return corruptf("block: bad column length %d", i)
		}
		data = data[n:]
		if l > uint64(len(data)) {
			return corruptf("block: column %d length %d exceeds remaining %d bytes", i, l, len(data))
		}
		lens[i] = int(l)
		sum += l
	}
	if sum != uint64(len(data)) {
		return corruptf("block: column lengths sum to %d, %d bytes present", sum, len(data))
	}
	cols := make([][]byte, nCols)
	for i, l := range lens {
		cols[i] = data[:l]
		data = data[l:]
	}
	b.cols = cols
	return nil
}

// decodeDeltaU decodes a uvarint-delta column of exactly rows values.
func decodeDeltaU(data []byte, rows int) ([]uint64, error) {
	out := make([]uint64, rows)
	var prev uint64
	for i := 0; i < rows; i++ {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, corruptf("delta column: short at row %d/%d", i, rows)
		}
		data = data[n:]
		if i == 0 {
			prev = v
		} else {
			prev += v
		}
		out[i] = prev
	}
	if len(data) != 0 {
		return nil, corruptf("delta column: %d trailing bytes", len(data))
	}
	return out, nil
}

// decodeDeltaI decodes a zigzag-varint-delta column of exactly rows
// values, with wraparound addition mirroring the encoder.
func decodeDeltaI(data []byte, rows int) ([]int64, error) {
	out := make([]int64, rows)
	var prev int64
	for i := 0; i < rows; i++ {
		v, n := binary.Varint(data)
		if n <= 0 {
			return nil, corruptf("delta column: short at row %d/%d", i, rows)
		}
		data = data[n:]
		if i == 0 {
			prev = v
		} else {
			prev = int64(uint64(prev) + uint64(v))
		}
		out[i] = prev
	}
	if len(data) != 0 {
		return nil, corruptf("delta column: %d trailing bytes", len(data))
	}
	return out, nil
}

// RowIndexes decodes the global row-index column (archive order).
func (b *Block) RowIndexes() ([]uint64, error) {
	if b.rowIdx != nil {
		return b.rowIdx, nil
	}
	if err := b.parseCols(); err != nil {
		return nil, err
	}
	v, err := decodeDeltaU(b.cols[0], b.meta.rows)
	if err != nil {
		return nil, err
	}
	b.rowIdx = v
	return v, nil
}

// PIDs decodes the PID column.
func (b *Block) PIDs() ([]int64, error) {
	if b.pids != nil {
		return b.pids, nil
	}
	if err := b.parseCols(); err != nil {
		return nil, err
	}
	v, err := decodeDeltaI(b.cols[1], b.meta.rows)
	if err != nil {
		return nil, err
	}
	b.pids = v
	return v, nil
}

// Metric decodes metric column m (MetricNames order; unsigned counters
// come back bit-reinterpreted as int64).
func (b *Block) Metric(m int) ([]int64, error) {
	if m < 0 || m >= NumMetrics {
		return nil, fmt.Errorf("archive: metric index %d out of range", m)
	}
	if b.metrics[m] != nil {
		return b.metrics[m], nil
	}
	if err := b.parseCols(); err != nil {
		return nil, err
	}
	v, err := decodeDeltaI(b.cols[2+m], b.meta.rows)
	if err != nil {
		return nil, err
	}
	b.metrics[m] = v
	return v, nil
}

// Feature decodes feature column i.
func (b *Block) Feature(i int) ([]float64, error) {
	if i < 0 || i >= len(b.meta.featIdx) {
		return nil, fmt.Errorf("archive: feature index %d out of range", i)
	}
	if b.feats == nil {
		b.feats = make([][]float64, len(b.meta.featIdx))
	}
	if b.feats[i] != nil {
		return b.feats[i], nil
	}
	if err := b.parseCols(); err != nil {
		return nil, err
	}
	col := b.cols[2+NumMetrics+i]
	if len(col) == 0 {
		return nil, corruptf("feature column %d: empty", i)
	}
	tag, col := col[0], col[1:]
	out := make([]float64, b.meta.rows)
	switch tag {
	case featEncIntegral:
		iv, err := decodeDeltaI(col, b.meta.rows)
		if err != nil {
			return nil, err
		}
		for r, v := range iv {
			out[r] = float64(v)
		}
	case featEncRaw:
		if len(col) != 8*b.meta.rows {
			return nil, corruptf("feature column %d: %d raw bytes for %d rows", i, len(col), b.meta.rows)
		}
		for r := range out {
			out[r] = math.Float64frombits(binary.LittleEndian.Uint64(col[8*r:]))
		}
	default:
		return nil, corruptf("feature column %d: unknown encoding tag %d", i, tag)
	}
	b.feats[i] = out
	return out, nil
}

// ---------------------------------------------------------------------------
// Reader surface

// NumRows returns the archive's total row count (from footers).
func (r *Reader) NumRows() int64 { return r.rows }

// Blocks calls fn for each column block in storage order; fn returning
// false stops the iteration. The Block handle is only valid during the
// call.
func (r *Reader) Blocks(fn func(*Block) bool) {
	for si := range r.segs {
		seg := &r.segs[si]
		for bi := range seg.blocks {
			b := Block{seg: seg, meta: &seg.blocks[bi]}
			if !fn(&b) {
				return
			}
		}
	}
}

// Stats summarizes an archive for tsctl archive inspect.
type Stats struct {
	Segments  int              `json:"segments"`
	Blocks    int              `json:"blocks"`
	Rows      int64            `json:"rows"`
	Bytes     int64            `json:"bytes"`
	RowsByOU  map[string]int64 `json:"rows_by_ou"`
	RowsBySub map[string]int64 `json:"rows_by_subsystem"`
}

// Stats walks the footers (no column decode) and aggregates row counts.
func (r *Reader) Stats() Stats {
	st := Stats{
		Segments:  len(r.segs),
		Rows:      r.rows,
		Bytes:     r.size,
		RowsByOU:  map[string]int64{},
		RowsBySub: map[string]int64{},
	}
	r.Blocks(func(b *Block) bool {
		st.Blocks++
		st.RowsByOU[b.OUName()] += int64(b.NumRows())
		st.RowsBySub[b.Subsystem().String()] += int64(b.NumRows())
		return true
	})
	return st
}

// Verify deep-checks the archive beyond NewReader's structural pass: it
// decodes every column and confirms row counts, zone-map bounds, and
// row-index ordering all hold.
func (r *Reader) Verify() error {
	seen := make(map[uint64]bool, r.rows)
	var err error
	r.Blocks(func(b *Block) bool {
		idx, e := b.RowIndexes()
		if e != nil {
			err = e
			return false
		}
		prev := uint64(0)
		for i, ri := range idx {
			if ri < b.meta.rowLo || ri > b.meta.rowHi {
				err = corruptf("row index %d outside block range [%d,%d]", ri, b.meta.rowLo, b.meta.rowHi)
				return false
			}
			if i > 0 && ri <= prev {
				err = corruptf("row indexes not strictly increasing at %d", ri)
				return false
			}
			if seen[ri] {
				err = corruptf("duplicate row index %d", ri)
				return false
			}
			seen[ri] = true
			prev = ri
		}
		pids, e := b.PIDs()
		if e != nil {
			err = e
			return false
		}
		for _, p := range pids {
			if p < b.meta.pidMin || p > b.meta.pidMax {
				err = corruptf("pid %d outside zone map [%d,%d]", p, b.meta.pidMin, b.meta.pidMax)
				return false
			}
		}
		for m := 0; m < NumMetrics; m++ {
			vals, e := b.Metric(m)
			if e != nil {
				err = e
				return false
			}
			lo, hi := b.MetricRange(m)
			for _, v := range vals {
				if v < lo || v > hi {
					err = corruptf("metric %s value %d outside zone map [%d,%d]",
						tscout.MetricNames[m], v, lo, hi)
					return false
				}
			}
		}
		for f := 0; f < b.NumFeatures(); f++ {
			vals, e := b.Feature(f)
			if e != nil {
				err = e
				return false
			}
			lo, hi := b.FeatureRange(f)
			for _, v := range vals {
				if v == v && (v < lo || v > hi) {
					err = corruptf("feature %s value %g outside zone map [%g,%g]",
						b.FeatureName(f), v, lo, hi)
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if int64(len(seen)) != r.rows {
		return corruptf("%d distinct row indexes, footers claim %d rows", len(seen), r.rows)
	}
	return nil
}

// Points materializes the full archive back into TrainingPoint structs in
// archive order (sorted by global row index) — the lossless inverse of
// the Writer, used by CSV export and round-trip tests. Hot paths
// (model training, SQL scans) read columns directly instead.
func (r *Reader) Points() ([]tscout.TrainingPoint, error) {
	type slot struct {
		idx uint64
		tp  tscout.TrainingPoint
	}
	out := make([]slot, 0, r.rows)
	var err error
	r.Blocks(func(b *Block) bool {
		idx, e := b.RowIndexes()
		if e != nil {
			err = e
			return false
		}
		pids, e := b.PIDs()
		if e != nil {
			err = e
			return false
		}
		var cols [NumMetrics][]int64
		for m := range cols {
			if cols[m], e = b.Metric(m); e != nil {
				err = e
				return false
			}
		}
		nf := b.NumFeatures()
		feats := make([][]float64, nf)
		for f := range feats {
			if feats[f], e = b.Feature(f); e != nil {
				err = e
				return false
			}
		}
		var names []string
		if b.meta.named > 0 {
			names = make([]string, b.meta.named)
			for i := range names {
				names[i] = b.FeatureName(i)
			}
		}
		for row := range idx {
			tp := tscout.TrainingPoint{
				OU:        b.OU(),
				OUName:    b.OUName(),
				Subsystem: b.Subsystem(),
				PID:       int(pids[row]),
			}
			for m := 0; m < NumMetrics; m++ {
				setMetric(&tp.Metrics, m, cols[m][row])
			}
			if nf > 0 {
				fv := make([]float64, nf)
				for f := 0; f < nf; f++ {
					fv[f] = feats[f][row]
				}
				tp.Features = fv
			}
			if names != nil {
				tp.FeatureNames = names
			}
			out = append(out, slot{idx: idx[row], tp: tp})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	pts := make([]tscout.TrainingPoint, len(out))
	for i := range out {
		pts[i] = out[i].tp
	}
	return pts, nil
}
