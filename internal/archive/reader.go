package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

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
	segs    []segmentData
	first   uint64 // global row index of the archive's first row
	rows    int64
	size    int64
	maxRows int // the largest block's rows: every decode buffer's size
}

// NewReader parses data as a sequence of segments. It never panics on
// hostile bytes: every length is bounds-checked against the bytes that
// actually back it before any allocation sized from it.
//
// Row indexes are dense, and NewReader checks that from the footers alone:
// a segment of n rows whose first row is f has every block inside
// [f, f+n), the next segment starts at f+n, and the first segment starts
// at its lowest block row. So the archive's rows are
// [FirstRow(), FirstRow()+NumRows()), and a reader places each row at
// index-FirstRow() instead of sorting. A run of consecutively sealed
// segments (the autopilot's tail) is an archive; a rewind or a gap is not.
//
// Parsing costs a fixed number of allocations per segment (parseFooter),
// whatever its blocks or dictionary entries, and a Blocks call a fixed
// number per call: its Block sizes every buffer once, to the largest
// block NewReader saw.
func NewReader(data []byte) (*Reader, error) {
	r := &Reader{size: int64(len(data))}
	for off := 0; off < len(data); {
		seg, n, err := parseSegment(data[off:])
		if err != nil {
			return nil, fmt.Errorf("segment %d at offset %d: %w", len(r.segs), off, err)
		}
		if err := r.checkDense(&seg); err != nil {
			return nil, fmt.Errorf("segment %d at offset %d: %w", len(r.segs), off, err)
		}
		for bi := range seg.blocks {
			r.maxRows = max(r.maxRows, seg.blocks[bi].rows)
		}
		r.segs = append(r.segs, seg)
		r.rows += seg.rows
		off += n
	}
	return r, nil
}

// checkDense holds seg, the segment after the r.rows rows parsed so far,
// to the dense row-index invariant: its blocks lie in [next, next+rows)
// and one of them starts at next. The first segment with rows sets
// r.first to its lowest row.
func (r *Reader) checkDense(seg *segmentData) error {
	if len(seg.blocks) == 0 {
		return nil
	}
	lo := seg.blocks[0].rowLo
	for bi := range seg.blocks {
		lo = min(lo, seg.blocks[bi].rowLo)
	}
	if r.rows == 0 {
		r.first = lo
	}
	next := r.first + uint64(r.rows)
	if lo > next {
		return corruptf("rows start at %d, leaving a gap after %d", lo, next)
	}
	for bi := range seg.blocks {
		m := &seg.blocks[bi]
		if m.rowLo < next {
			return corruptf("block %d: row index %d rewinds below %d", bi, m.rowLo, next)
		}
		if m.rowHi-next >= uint64(seg.rows) {
			return corruptf("block %d: row index %d overruns the segment's %d rows from %d",
				bi, m.rowHi, seg.rows, next)
		}
	}
	return nil
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

// Footer bytes a block's entry occupies at least, from the wire format
// (appendFooter): twelve varints of identity, extent, row and PID ranges
// and feature counts, and a varint pair per metric zone map; each feature
// adds a name index and its two float64 zone-map bounds. parseFooter
// sizes its per-segment slabs from these, so no claimed count allocates
// more than a fixed multiple of the footer bytes that must back it.
const (
	minBlockFooterBytes   = 12 + 2*tscout.NumMetrics
	minFeatureFooterBytes = 1 + 2*8
)

// parseFooter parses a segment's footer into seg in a fixed number of
// allocations, whatever its dictionary or block counts: the dictionary is
// one string whose entries are substrings, the blocks one slice, and every
// block's feature name indexes and zone maps are capacity-capped cuts of
// two per-segment slabs, so no block's slice reaches the next one's.
func parseFooter(seg *segmentData, footer []byte) error {
	fr := &footerReader{b: footer}

	// Dictionary. Each entry consumes at least one footer byte, so the
	// claimed count is bounded by the (checksummed) footer size; entry
	// bodies are bounds-checked by fr.bytes. A first pass finds the
	// dictionary's extent, which is copied into one string; the second
	// cuts each entry from it.
	nDict := fr.uvarint()
	if fr.err == nil && nDict > uint64(len(fr.b)) {
		return corruptf("dictionary count %d exceeds footer size %d", nDict, len(footer))
	}
	start := fr.b
	for i := uint64(0); i < nDict && fr.err == nil; i++ {
		n := fr.uvarint()
		if fr.err == nil && n > uint64(len(fr.b)) {
			return corruptf("dictionary entry %d: length %d exceeds remaining footer", i, n)
		}
		fr.bytes(int(n))
	}
	if fr.err != nil {
		return fr.err
	}
	dictBytes := start[:len(start)-len(fr.b)]
	dict := string(dictBytes)
	seg.dict = make([]string, nDict)
	entries := footerReader{b: dictBytes}
	for i := range seg.dict {
		n := int(entries.uvarint())
		at := len(dictBytes) - len(entries.b)
		seg.dict[i] = dict[at : at+n]
		entries.b = entries.b[n:]
	}

	totalRows := fr.uvarint()
	nBlocks := fr.uvarint()
	if fr.err != nil {
		return fr.err
	}
	// A legitimate block has at least one payload byte per row (the row
	// index column) and minBlockFooterBytes of footer, so both counts are
	// bounded by the segment's actual size. This keeps hostile
	// allocations small.
	if totalRows > uint64(len(seg.payload)) {
		return corruptf("row count %d exceeds payload size %d", totalRows, len(seg.payload))
	}
	if nBlocks > uint64(len(fr.b)/minBlockFooterBytes) {
		return corruptf("block count %d exceeds footer size %d", nBlocks, len(footer))
	}
	seg.rows = int64(totalRows)
	seg.blocks = make([]blockMeta, 0, nBlocks)
	// The bytes the blocks' fixed fields do not take bound the features
	// all blocks can hold; a block whose features would overrun the slabs
	// overruns the footer too.
	nFeatMax := min((uint64(len(fr.b))-nBlocks*minBlockFooterBytes)/minFeatureFooterBytes, nBlocks*tscout.MaxFeatures)
	idxSlab := make([]int, 0, nFeatMax)
	zoneSlab := make([]float64, 0, 2*nFeatMax)

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
		nf := int(nFeat)
		if len(idxSlab)+nf > cap(idxSlab) {
			return corruptf("block %d: %d features overrun the footer", bi, nf)
		}
		m.nameIdx = int(nameIdx)
		m.rows = int(rows)
		m.off = int(off)
		m.ln = int(ln)
		m.named = int(named)
		k := len(idxSlab)
		idxSlab = idxSlab[:k+nf]
		m.featIdx = idxSlab[k : k+nf : k+nf]
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
		for mi := range m.minVal {
			m.minVal[mi] = fr.varint()
			m.maxVal[mi] = fr.varint()
		}
		k = len(zoneSlab)
		zoneSlab = zoneSlab[:k+2*nf]
		m.featMin = zoneSlab[k : k+nf : k+nf]
		m.featMax = zoneSlab[k+nf : k+2*nf : k+2*nf]
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
// decoded columns. Reader.Blocks reuses one Block, and its column buffers,
// for every block of a call, so the handle and every slice its accessors
// return are valid only until the callback returns.
type Block struct {
	seg     *segmentData
	meta    *blockMeta
	maxRows int // the reader's largest block: the size of a decode buffer

	// Column buffers, kept across blocks; an empty slice is a column not
	// yet decoded for this block (every block has at least one row). Each
	// is made once, at its full size: cols and lens hold the widest
	// layout's columns, and a decode buffer maxRows values.
	cols    [][]byte // sliced column extents
	lens    []int    // parseCols scratch
	rowIdx  []uint64
	pids    []int64
	metrics [tscout.NumMetrics][]int64
	feats   [][]float64
	ints    []int64 // integral feature scratch
}

// maxCols is the widest block layout: row index, PID, the metrics and
// tscout.MaxFeatures features.
const maxCols = 2 + tscout.NumMetrics + tscout.MaxFeatures

// buffer returns buf resliced to the block's rows, or a new buffer of
// maxRows values if buf has never held any, so a Blocks call makes each
// buffer once, whatever order its blocks' sizes come in.
func buffer[T int64 | uint64 | float64](buf []T, rows, maxRows int) []T {
	if cap(buf) < rows {
		buf = make([]T, max(rows, maxRows))
	}
	return buf[:rows]
}

// reset points b at a new block, emptying its buffers for reuse.
func (b *Block) reset(seg *segmentData, meta *blockMeta) {
	b.seg, b.meta = seg, meta
	b.cols = b.cols[:0]
	b.rowIdx = b.rowIdx[:0]
	b.pids = b.pids[:0]
	for m := range b.metrics {
		b.metrics[m] = b.metrics[m][:0]
	}
	for f := range b.feats {
		b.feats[f] = b.feats[f][:0]
	}
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
	if len(b.cols) > 0 {
		return nil
	}
	data := b.seg.payload[b.meta.off : b.meta.off+b.meta.ln]
	nCols, n := binary.Uvarint(data)
	if n <= 0 {
		return corruptf("block: bad column count")
	}
	data = data[n:]
	want := uint64(2 + tscout.NumMetrics + len(b.meta.featIdx))
	if nCols != want {
		return corruptf("block: %d columns, layout requires %d", nCols, want)
	}
	if b.lens == nil {
		b.cols, b.lens = make([][]byte, 0, maxCols), make([]int, 0, maxCols)
	}
	lens := b.lens[:0]
	var sum uint64
	for i := 0; i < int(nCols); i++ {
		l, n := binary.Uvarint(data)
		if n <= 0 {
			return corruptf("block: bad column length %d", i)
		}
		data = data[n:]
		if l > uint64(len(data)) {
			return corruptf("block: column %d length %d exceeds remaining %d bytes", i, l, len(data))
		}
		lens = append(lens, int(l))
		sum += l
	}
	b.lens = lens
	if sum != uint64(len(data)) {
		return corruptf("block: column lengths sum to %d, %d bytes present", sum, len(data))
	}
	cols := b.cols[:0]
	for _, l := range lens {
		cols = append(cols, data[:l])
		data = data[l:]
	}
	b.cols = cols
	return nil
}

// decodeDeltaU decodes a uvarint-delta column of exactly len(out) values
// into out.
func decodeDeltaU(out []uint64, data []byte) ([]uint64, error) {
	rows := len(out)
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

// decodeDeltaI decodes a zigzag-varint-delta column of exactly len(out)
// values into out, with wraparound addition mirroring the encoder.
func decodeDeltaI(out []int64, data []byte) ([]int64, error) {
	rows := len(out)
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
	if len(b.rowIdx) > 0 {
		return b.rowIdx, nil
	}
	if err := b.parseCols(); err != nil {
		return nil, err
	}
	v, err := decodeDeltaU(buffer(b.rowIdx, b.meta.rows, b.maxRows), b.cols[0])
	if err != nil {
		return nil, err
	}
	b.rowIdx = v
	return v, nil
}

// PIDs decodes the PID column.
func (b *Block) PIDs() ([]int64, error) {
	if len(b.pids) > 0 {
		return b.pids, nil
	}
	if err := b.parseCols(); err != nil {
		return nil, err
	}
	v, err := decodeDeltaI(buffer(b.pids, b.meta.rows, b.maxRows), b.cols[1])
	if err != nil {
		return nil, err
	}
	b.pids = v
	return v, nil
}

// Metric decodes metric column m (MetricNames order): element m of each
// row's tscout.Metrics.Values, which tscout.MetricsOf inverts.
func (b *Block) Metric(m int) ([]int64, error) {
	if m < 0 || m >= tscout.NumMetrics {
		return nil, fmt.Errorf("archive: metric index %d out of range", m)
	}
	if len(b.metrics[m]) > 0 {
		return b.metrics[m], nil
	}
	if err := b.parseCols(); err != nil {
		return nil, err
	}
	v, err := decodeDeltaI(buffer(b.metrics[m], b.meta.rows, b.maxRows), b.cols[2+m])
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
		b.feats = make([][]float64, tscout.MaxFeatures)
	}
	if len(b.feats[i]) > 0 {
		return b.feats[i], nil
	}
	if err := b.parseCols(); err != nil {
		return nil, err
	}
	col := b.cols[2+tscout.NumMetrics+i]
	if len(col) == 0 {
		return nil, corruptf("feature column %d: empty", i)
	}
	tag, col := col[0], col[1:]
	rows := b.meta.rows
	out := buffer(b.feats[i], rows, b.maxRows)
	switch tag {
	case featEncIntegral:
		iv, err := decodeDeltaI(buffer(b.ints, rows, b.maxRows), col)
		if err != nil {
			return nil, err
		}
		b.ints = iv
		for r, v := range iv {
			out[r] = float64(v)
		}
	case featEncRaw:
		if len(col) != 8*rows {
			return nil, corruptf("feature column %d: %d raw bytes for %d rows", i, len(col), rows)
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

// FirstRow returns the global row index of the archive's first row: 0 for
// a whole archive, the first sealed row for a tail. Row i of the archive,
// in archive order, has row index FirstRow()+i.
func (r *Reader) FirstRow() uint64 { return r.first }

// Blocks calls fn for each column block in storage order; fn returning
// false stops the iteration. Every block of one call arrives in the same
// Block, whose column buffers the next block reuses: the handle and the
// slices its accessors return are valid only during the call. Each call
// owns its own Block, so nested scans are safe.
func (r *Reader) Blocks(fn func(*Block) bool) {
	b := Block{maxRows: r.maxRows}
	for si := range r.segs {
		seg := &r.segs[si]
		for bi := range seg.blocks {
			b.reset(seg, &seg.blocks[bi])
			if !fn(&b) {
				return
			}
		}
	}
}

// rowSet records which of an archive's rows a pass has placed.
type rowSet struct {
	first uint64
	n     uint64
	bits  []uint64
}

func newRowSet(r *Reader) rowSet {
	return rowSet{first: r.first, n: uint64(r.rows), bits: make([]uint64, (r.rows+63)/64)}
}

// place marks row index ri placed and returns its position in archive
// order; a row outside the archive or placed before is corrupt.
func (s *rowSet) place(ri uint64) (int, error) {
	pos := ri - s.first
	if pos >= s.n {
		return 0, corruptf("row index %d outside the archive's rows [%d,+%d)", ri, s.first, s.n)
	}
	w, bit := pos/64, uint64(1)<<(pos%64)
	if s.bits[w]&bit != 0 {
		return 0, corruptf("duplicate row index %d", ri)
	}
	s.bits[w] |= bit
	return int(pos), nil
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
	seen := newRowSet(r)
	var distinct int64
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
			if _, err = seen.place(ri); err != nil {
				return false
			}
			distinct++
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
		for m := range tscout.NumMetrics {
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
	if distinct != r.rows {
		return corruptf("%d distinct row indexes, footers claim %d rows", distinct, r.rows)
	}
	return nil
}

// Points materializes the full archive back into TrainingPoint structs in
// archive order, each row placed at its row index's position — the
// lossless inverse of the Writer, used by CSV export and round-trip tests.
// Hot paths (model training, SQL scans) read columns directly instead.
func (r *Reader) Points() ([]tscout.TrainingPoint, error) {
	out := make([]tscout.TrainingPoint, r.rows)
	placed := newRowSet(r)
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
		var cols [tscout.NumMetrics][]int64
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
		// One feature arena per block; each row's cut is capacity-limited,
		// so an append to one point's features never reaches the next.
		arena := make([]float64, nf*len(idx))
		for row, ri := range idx {
			pos, e := placed.place(ri)
			if e != nil {
				err = e
				return false
			}
			tp := &out[pos]
			tp.OU, tp.OUName, tp.Subsystem = b.OU(), b.OUName(), b.Subsystem()
			tp.PID = int(pids[row])
			var v [tscout.NumMetrics]int64
			for m, col := range cols {
				v[m] = col[row]
			}
			tp.Metrics = tscout.MetricsOf(&v)
			if nf > 0 {
				fv := arena[row*nf : (row+1)*nf : (row+1)*nf]
				for f, col := range feats {
					fv[f] = col[row]
				}
				tp.Features = fv
			}
			tp.FeatureNames = names
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
