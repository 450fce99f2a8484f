// Package archive implements TScout's columnar training-data archive — the
// only store of training points; the Processor keeps none — as a binary
// segment format written directly from the Processor's drain path
// (batch-first Sink), and a reader serving column-projected,
// predicate-pushdown scans without materializing TrainingPoint structs.
//
// An archive is a concatenation of self-contained segments. Each segment
// groups its rows into per-OU column blocks (one block per distinct
// (OU, subsystem, feature-name tuple)), delta/varint-encodes the counter
// columns, dictionary-encodes OU and feature names, and carries a footer
// with per-block row counts, per-column min/max (zone maps) and an FNV-64a
// checksum over the whole segment. DESIGN.md §13 specifies the wire
// format; FuzzSegmentCodec holds the reader to "hostile bytes never
// panic, valid segments round-trip bit-exactly".
package archive

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"tscout/internal/tscout"
)

// Wire-format constants (all integers little-endian).
const (
	// segMagic opens every segment: "TSG1".
	segMagic = uint32(0x31475354)
	// segVersion is the only version this reader accepts.
	segVersion = uint32(1)
	// segHeaderBytes is magic + version + payloadLen + footerLen.
	segHeaderBytes = 16
	// segTrailerBytes is the FNV-64a checksum.
	segTrailerBytes = 8
)

// Feature-column encoding tags. Each feature column begins with one tag
// byte choosing its representation.
const (
	// featEncRaw stores 8 bytes of IEEE-754 bits per row — the fallback
	// that is bit-exact for any float64 (NaN payloads, -0, subnormals).
	featEncRaw = byte(0)
	// featEncIntegral stores zigzag-varint deltas of the integral values;
	// chosen only when every value round-trips bit-exactly through int64.
	featEncIntegral = byte(1)
)

// blockMeta is one column block's footer entry.
type blockMeta struct {
	ou      uint64
	nameIdx int // dictionary index of the OU name
	sub     uint64
	rows    int
	off, ln int // block payload extent within the segment payload
	named   int // how many features the original rows carried names for

	rowLo, rowHi     uint64 // global row-index range (archive order)
	pidMin, pidMax   int64
	featIdx          []int // dictionary indexes of the feature names
	minVal, maxVal   [tscout.NumMetrics]int64
	featMin, featMax []float64 // per-feature zone maps
}

// segmentData is one parsed segment.
type segmentData struct {
	payload []byte
	dict    []string
	blocks  []blockMeta
	rows    int64
}

// ---------------------------------------------------------------------------
// Encoding

// encoder builds the open segment's blocks as rows arrive and seals them
// into wire segments. Each row goes straight into the column builder of its
// block, so nothing of a row outlives the call that adds it. All of it is
// reused from segment to segment and none of it leaves with the wire bytes,
// so once the first segments have grown it, a seal allocates nothing per
// block.
type encoder struct {
	payload []byte
	footer  []byte
	colBuf  []byte // all of one block's column bytes, contiguous
	colLens []int  // per-column byte lengths within colBuf
	dict    []string
	dictIdx map[string]int
	vals    []int64
	key     []byte // block-key scratch (avoids a per-row alloc)

	// blocks maps every block key the encoder has seen to its builder in
	// builders, so a key's string is made once, not once a segment, and a
	// key's columns keep the room its blocks have needed. Both are dropped
	// whole when the keys outgrow maxBlockKeys. seals numbers the segments,
	// so that a builder tells whether it has rows in the open one.
	blocks   map[string]int
	builders []blockBuilder
	seals    int
	// order lists the builders with rows in the open segment, in the
	// order of their first row, which is the order their blocks seal in.
	order []int
	// recent holds, a slot per OU id modulo its length, one more than the
	// builder of the last row looked up with an OU id of that slot (0 for
	// none). Rows of one OU usually share a block, so a row is checked
	// against that builder field by field and builds no key bytes.
	recent [64]int32
	metas  []blockMeta // the footer entries, their slices reused
}

// blockBuilder builds one block key's block of the open segment, column by
// column as rows arrive: the block's identity from its first row, then the
// global row index, the PID, the metrics (Metrics.Values order) and each
// feature (its IEEE-754 bits) of every row. The columns are 64-bit words in
// one array, each with room for the same c rows, so a row costs one
// capacity check and growing a block is one allocation, whatever its
// width.
type blockBuilder struct {
	seal  int // the segment the builder last had rows in
	ou    tscout.OUID
	sub   tscout.SubsystemID
	name  string
	names []string // the first row's FeatureNames, copied
	n, c  int      // rows, and the rows every column has room for
	nf    int      // features a row
	words []int64  // column k at [k*c, k*c+n)
}

// Columns of a blockBuilder: the row index, the PID, the metrics from
// metricCol and the features from featCol.
const (
	rowCol    = 0
	pidCol    = 1
	metricCol = 2
	featCol   = metricCol + tscout.NumMetrics
)

// maxBlockKeys bounds encoder.blocks. A deployment's rows fall into one
// block key per OU (and per repaired feature width), far fewer than this.
const maxBlockKeys = 1024

// add appends tp to its block in the open segment as global row row. The
// first row of a segment starts the segment's numbering. A row whose block
// is its OU slot's recent builder, which it checks field by field, builds
// no key bytes; any other row is looked up by its key.
func (e *encoder) add(tp *tscout.TrainingPoint, row uint64) {
	if len(e.order) == 0 {
		if e.blocks == nil || len(e.blocks) > maxBlockKeys {
			e.blocks, e.builders = make(map[string]int), nil
			clear(e.recent[:])
		}
		e.seals++
	}
	r := &e.recent[int(tp.OU)%len(e.recent)]
	i := int(*r) - 1
	if i < 0 || !e.builders[i].holds(tp) {
		i = e.builderOf(tp)
		*r = int32(i + 1)
	}
	b := &e.builders[i]
	if b.seal != e.seals {
		// The key's first row in the open segment starts its block there.
		b.seal = e.seals
		b.start(tp)
		e.order = append(e.order, i)
	}
	b.add(tp, row)
}

// builderOf returns the builder of tp's block key, making one for a key
// it has not seen. A builder is only ever started with a row of its key, so
// a row with every field blockKey reads equal to a builder's has its key.
func (e *encoder) builderOf(tp *tscout.TrainingPoint) int {
	e.key = blockKey(e.key[:0], tp)
	i, ok := e.blocks[string(e.key)]
	if !ok {
		i = len(e.builders)
		e.blocks[string(e.key)] = i
		e.builders = append(e.builders, blockBuilder{})
	}
	return i
}

// start empties b, keeping its columns' room, for a block whose first row
// is tp.
func (b *blockBuilder) start(tp *tscout.TrainingPoint) {
	b.ou, b.sub, b.name = tp.OU, tp.Subsystem, tp.OUName
	b.names = append(b.names[:0], tp.FeatureNames...)
	b.n, b.nf = 0, len(tp.Features)
	if need := (featCol + b.nf) * b.c; len(b.words) < need {
		b.words = make([]int64, need)
	}
}

// add appends tp's values, as global row row, to b's columns.
func (b *blockBuilder) add(tp *tscout.TrainingPoint, row uint64) {
	if b.n == b.c {
		b.grow()
	}
	n, c, w := b.n, b.c, b.words
	w[rowCol*c+n] = int64(row)
	w[pidCol*c+n] = int64(tp.PID)
	vals := tp.Metrics.Values()
	for m, v := range &vals {
		w[(metricCol+m)*c+n] = v
	}
	for f, v := range tp.Features[:b.nf] {
		w[(featCol+f)*c+n] = int64(math.Float64bits(v))
	}
	b.n++
}

// grow makes room for more rows in every column, moving the columns: twice
// the rows up to 256, then a quarter more. A builder keeps its room from
// segment to segment, so the small steps are paid once, while the room its
// largest block leaves unused stays small.
func (b *blockBuilder) grow() {
	c := max(2*b.c, 16)
	if b.c >= 256 {
		c = b.c + b.c/4
	}
	words := make([]int64, (featCol+b.nf)*c)
	for k := range featCol + b.nf {
		copy(words[k*c:], b.col(k))
	}
	b.words, b.c = words, c
}

// col returns column k.
func (b *blockBuilder) col(k int) []int64 { return b.words[k*b.c : k*b.c+b.n] }

// holds reports whether tp has every field blockKey keys b's first row by,
// and so b's key.
func (b *blockBuilder) holds(tp *tscout.TrainingPoint) bool {
	if tp.OU != b.ou || tp.Subsystem != b.sub || len(tp.Features) != b.nf ||
		len(tp.FeatureNames) != len(b.names) || tp.OUName != b.name {
		return false
	}
	for i, n := range tp.FeatureNames {
		if n != b.names[i] {
			return false
		}
	}
	return true
}

func (e *encoder) reset() {
	e.payload = e.payload[:0]
	e.footer = e.footer[:0]
	e.dict = e.dict[:0]
	if e.dictIdx == nil {
		e.dictIdx = make(map[string]int)
	} else {
		for k := range e.dictIdx {
			delete(e.dictIdx, k)
		}
	}
}

func (e *encoder) intern(s string) int {
	if i, ok := e.dictIdx[s]; ok {
		return i
	}
	i := len(e.dict)
	e.dict = append(e.dict, s)
	e.dictIdx[s] = i
	return i
}

// blockKey groups rows into blocks: a block holds rows of one OU with one
// subsystem and one feature-name tuple, so every per-block column is
// uniform and the name tables are stored once.
func blockKey(key []byte, tp *tscout.TrainingPoint) []byte {
	key = binary.LittleEndian.AppendUint16(key, uint16(tp.OU))
	key = append(key, byte(tp.Subsystem))
	// Feature count and name count both shape the column layout, so rows
	// differing in either cannot share a block.
	key = binary.AppendUvarint(key, uint64(len(tp.Features)))
	key = binary.AppendUvarint(key, uint64(len(tp.FeatureNames)))
	key = append(key, tp.OUName...)
	for _, n := range tp.FeatureNames {
		key = append(key, 0)
		key = append(key, n...)
	}
	return key
}

// appendDeltaU appends vals, read as unsigned, as uvarint(first) + uvarint
// deltas (wrapping).
func appendDeltaU(dst []byte, vals []int64) []byte {
	dst, n := slices.Grow(dst, len(vals)*binary.MaxVarintLen64), len(dst)
	buf := dst[:cap(dst)]
	var prev uint64
	for _, v := range vals {
		n = putUvarint(buf, n, uint64(v)-prev)
		prev = uint64(v)
	}
	return buf[:n]
}

// appendDeltaI appends vals as varint(first) + zigzag-varint deltas, with
// wraparound subtraction so extreme values cannot overflow.
func appendDeltaI(dst []byte, vals []int64) []byte {
	dst, n := slices.Grow(dst, len(vals)*binary.MaxVarintLen64), len(dst)
	buf := dst[:cap(dst)]
	var prev int64
	for _, v := range vals {
		d := int64(uint64(v) - uint64(prev))
		n = putUvarint(buf, n, uint64(d<<1)^uint64(d>>63)) // zigzag, as binary.AppendVarint
		prev = v
	}
	return buf[:n]
}

// putUvarint writes x as a uvarint at buf[n:], which has room for one, and
// returns the index after it: binary.AppendUvarint's bytes, with no append
// a byte.
func putUvarint(buf []byte, n int, x uint64) int {
	for x >= 0x80 {
		buf[n] = byte(x) | 0x80
		x >>= 7
		n++
	}
	buf[n] = byte(x)
	return n + 1
}

// integralExact reports whether f survives a round trip through int64 with
// identical bits (rules out NaN, ±Inf, -0, fractions, and magnitudes past
// 2^62).
func integralExact(f float64) (int64, bool) {
	if f != math.Trunc(f) || math.Abs(f) >= 1<<62 {
		return 0, false
	}
	i := int64(f)
	if math.Float64bits(float64(i)) != math.Float64bits(f) {
		return 0, false
	}
	return i, true
}

// encodeSegment seals the open segment's blocks, in first-appearance
// order, into one wire segment of rows rows appended to dst, and leaves the
// encoder with an empty open segment.
func (e *encoder) encodeSegment(dst []byte, rows int) []byte {
	e.reset()
	e.metas = slices.Grow(e.metas[:0], len(e.order))[:len(e.order)]
	for bi, i := range e.order {
		b := &e.builders[i]
		nf := b.nf
		meta := &e.metas[bi]
		*meta = blockMeta{
			ou:      uint64(b.ou),
			nameIdx: e.intern(b.name),
			sub:     uint64(b.sub),
			rows:    b.n,
			off:     len(e.payload),
			named:   len(b.names),
			featIdx: meta.featIdx[:0],
			featMin: slices.Grow(meta.featMin[:0], nf)[:nf],
			featMax: slices.Grow(meta.featMax[:0], nf)[:nf],
		}
		for _, n := range b.names {
			meta.featIdx = append(meta.featIdx, e.intern(n))
		}
		// FeatureNames may be shorter than Features (repaired vectors);
		// pad the dictionary refs with generated f<i> names so decode
		// reproduces the same effective names. The original name-count is
		// preserved separately so round-trip stays bit-exact.
		nNames := len(meta.featIdx)
		for i := nNames; i < nf; i++ {
			meta.featIdx = append(meta.featIdx, e.intern(fmt.Sprintf("f%d", i)))
		}

		// Columns encode back to back into colBuf; colLens records each
		// column's extent so the block header can be emitted afterwards
		// without a per-column allocation.
		e.colBuf, e.colLens = e.colBuf[:0], e.colLens[:0]
		colStart := 0
		endCol := func() {
			e.colLens = append(e.colLens, len(e.colBuf)-colStart)
			colStart = len(e.colBuf)
		}

		// Column 0: global row indexes (archive order), then column 1: PID
		// and columns 2..12: the metrics in MetricNames order, all
		// zigzag-delta varint.
		rows := b.col(rowCol)
		meta.rowLo, meta.rowHi = uint64(rows[0]), uint64(rows[b.n-1])
		e.colBuf = appendDeltaU(e.colBuf, rows)
		endCol()
		meta.pidMin, meta.pidMax = minMax(b.col(pidCol))
		e.colBuf = appendDeltaI(e.colBuf, b.col(pidCol))
		endCol()
		for m := range tscout.NumMetrics {
			vals := b.col(metricCol + m)
			meta.minVal[m], meta.maxVal[m] = minMax(vals)
			e.colBuf = appendDeltaI(e.colBuf, vals)
			endCol()
		}

		// Feature columns: integral zigzag-delta when bit-exact, raw bits
		// otherwise. One pass decides the encoding and the zone map; NaNs
		// poison the zone map open (-Inf, +Inf).
		for f := range nf {
			col := b.col(featCol + f)
			integral := true
			sawNaN := false
			lo, hi := math.Inf(1), math.Inf(-1)
			e.vals = e.vals[:0]
			for _, bits := range col {
				v := math.Float64frombits(uint64(bits))
				if v != v {
					sawNaN = true
				} else {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				if integral {
					if iv, ok := integralExact(v); ok {
						e.vals = append(e.vals, iv)
					} else {
						integral = false
					}
				}
			}
			if sawNaN {
				lo, hi = math.Inf(-1), math.Inf(1)
			}
			meta.featMin[f], meta.featMax[f] = lo, hi
			if integral {
				e.colBuf = append(e.colBuf, featEncIntegral)
				e.colBuf = appendDeltaI(e.colBuf, e.vals)
			} else {
				e.colBuf = append(e.colBuf, featEncRaw)
				for _, bits := range col {
					e.colBuf = binary.LittleEndian.AppendUint64(e.colBuf, uint64(bits))
				}
			}
			endCol()
		}

		// Block payload: uvarint nCols, the column lengths, then the bytes.
		e.payload = binary.AppendUvarint(e.payload, uint64(len(e.colLens)))
		for _, ln := range e.colLens {
			e.payload = binary.AppendUvarint(e.payload, uint64(ln))
		}
		e.payload = append(e.payload, e.colBuf...)
		meta.ln = len(e.payload) - meta.off
	}
	e.order = e.order[:0]

	e.footer = appendFooter(e.footer[:0], e.dict, rows, e.metas)
	return appendSegment(dst, e.payload, e.footer)
}

// appendFooter appends a segment footer: the dictionary, the row count,
// then each block's entry.
func appendFooter(f []byte, dict []string, rows int, metas []blockMeta) []byte {
	f = binary.AppendUvarint(f, uint64(len(dict)))
	for _, s := range dict {
		f = binary.AppendUvarint(f, uint64(len(s)))
		f = append(f, s...)
	}
	f = binary.AppendUvarint(f, uint64(rows))
	f = binary.AppendUvarint(f, uint64(len(metas)))
	for bi := range metas {
		m := &metas[bi]
		f = binary.AppendUvarint(f, m.ou)
		f = binary.AppendUvarint(f, uint64(m.nameIdx))
		f = binary.AppendUvarint(f, m.sub)
		f = binary.AppendUvarint(f, uint64(m.rows))
		f = binary.AppendUvarint(f, uint64(m.off))
		f = binary.AppendUvarint(f, uint64(m.ln))
		f = binary.AppendUvarint(f, m.rowLo)
		f = binary.AppendUvarint(f, m.rowHi)
		f = binary.AppendVarint(f, m.pidMin)
		f = binary.AppendVarint(f, m.pidMax)
		// Named count first (how many names rows carried), then the full
		// padded dictionary-index list.
		f = binary.AppendUvarint(f, uint64(m.named))
		f = binary.AppendUvarint(f, uint64(len(m.featIdx)))
		for _, di := range m.featIdx {
			f = binary.AppendUvarint(f, uint64(di))
		}
		for mi := range m.minVal {
			f = binary.AppendVarint(f, m.minVal[mi])
			f = binary.AppendVarint(f, m.maxVal[mi])
		}
		for fi := range m.featMin {
			f = binary.LittleEndian.AppendUint64(f, math.Float64bits(m.featMin[fi]))
			f = binary.LittleEndian.AppendUint64(f, math.Float64bits(m.featMax[fi]))
		}
	}
	return f
}

// appendSegment appends the wire form of one segment: header, payload,
// footer, checksum.
func appendSegment(dst, payload, footer []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, segMagic)
	dst = binary.LittleEndian.AppendUint32(dst, segVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(footer)))
	dst = append(dst, payload...)
	dst = append(dst, footer...)
	h := fnv.New64a()
	_, _ = h.Write(dst[start:])
	return binary.LittleEndian.AppendUint64(dst, h.Sum64())
}

func minMax(vals []int64) (lo, hi int64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
