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
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

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

// NumMetrics is the width of the metrics column group (tscout.MetricNames).
const NumMetrics = 11

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
	minVal, maxVal   [NumMetrics]int64
	featMin, featMax []float64 // per-feature zone maps
}

// segmentData is one parsed segment.
type segmentData struct {
	payload []byte
	dict    []string
	blocks  []blockMeta
	rows    int64
	wire    int64 // total on-wire bytes including header and checksum
}

// ---------------------------------------------------------------------------
// Encoding

// encoder holds reusable scratch state for sealing segments.
type encoder struct {
	payload []byte
	footer  []byte
	colBuf  []byte // all of one block's column bytes, contiguous
	colLens []int  // per-column byte lengths within colBuf
	dict    []string
	dictIdx map[string]int
	vals    []int64
	uvals   []uint64
	key     []byte              // block-key scratch (avoids a per-row alloc)
	mvals   [NumMetrics][]int64 // per-metric scratch, filled in one row pass
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

// appendDeltaU appends vals as uvarint(first) + uvarint deltas (wrapping).
func appendDeltaU(dst []byte, vals []uint64) []byte {
	var prev uint64
	for i, v := range vals {
		if i == 0 {
			dst = binary.AppendUvarint(dst, v)
		} else {
			dst = binary.AppendUvarint(dst, v-prev)
		}
		prev = v
	}
	return dst
}

// appendDeltaI appends vals as varint(first) + zigzag-varint deltas, with
// wraparound subtraction so extreme values cannot overflow.
func appendDeltaI(dst []byte, vals []int64) []byte {
	var prev int64
	for i, v := range vals {
		if i == 0 {
			dst = binary.AppendVarint(dst, v)
		} else {
			dst = binary.AppendVarint(dst, int64(uint64(v)-uint64(prev)))
		}
		prev = v
	}
	return dst
}

// metricValue extracts metric m (MetricNames order) as its int64 wire
// form; unsigned counters are reinterpreted bit-wise, which is lossless.
func metricValue(tp *tscout.TrainingPoint, m int) int64 {
	mt := &tp.Metrics
	switch m {
	case 0:
		return mt.ElapsedNS
	case 1:
		return int64(mt.Cycles)
	case 2:
		return int64(mt.Instructions)
	case 3:
		return int64(mt.CacheRefs)
	case 4:
		return int64(mt.CacheMisses)
	case 5:
		return int64(mt.RefCycles)
	case 6:
		return mt.DiskReadBytes
	case 7:
		return mt.DiskWriteBytes
	case 8:
		return mt.NetRecvBytes
	case 9:
		return mt.NetSendBytes
	default:
		return mt.AllocBytes
	}
}

// setMetric is metricValue's inverse.
func setMetric(mt *tscout.Metrics, m int, v int64) {
	switch m {
	case 0:
		mt.ElapsedNS = v
	case 1:
		mt.Cycles = uint64(v)
	case 2:
		mt.Instructions = uint64(v)
	case 3:
		mt.CacheRefs = uint64(v)
	case 4:
		mt.CacheMisses = uint64(v)
	case 5:
		mt.RefCycles = uint64(v)
	case 6:
		mt.DiskReadBytes = v
	case 7:
		mt.DiskWriteBytes = v
	case 8:
		mt.NetRecvBytes = v
	case 9:
		mt.NetSendBytes = v
	default:
		mt.AllocBytes = v
	}
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

// encodeSegment seals pts (whose global row indexes start at firstRow)
// into one wire segment appended to dst.
func (e *encoder) encodeSegment(dst []byte, pts []tscout.TrainingPoint, firstRow uint64) []byte {
	e.reset()

	// Group rows into blocks in first-appearance order (deterministic for
	// a given input order). The map is looked up with the scratch key
	// bytes (no per-row string allocation); a string is materialized only
	// when a new block opens. Consecutive rows usually share a block, so a
	// last-group fast path skips the map entirely for runs.
	type blockRows struct {
		first int
		idxs  []int
	}
	var order []*blockRows
	groups := make(map[string]*blockRows)
	var lastKey []byte
	var lastGroup *blockRows
	for i := range pts {
		e.key = blockKey(e.key[:0], &pts[i])
		g := lastGroup
		if g == nil || !bytes.Equal(e.key, lastKey) {
			var ok bool
			g, ok = groups[string(e.key)]
			if !ok {
				g = &blockRows{first: i}
				groups[string(e.key)] = g
				order = append(order, g)
			}
			lastKey = append(lastKey[:0], e.key...)
			lastGroup = g
		}
		g.idxs = append(g.idxs, i)
	}

	var metas []blockMeta
	for _, g := range order {
		proto := &pts[g.first]
		nf := len(proto.Features)
		meta := blockMeta{
			ou:      uint64(proto.OU),
			nameIdx: e.intern(proto.OUName),
			sub:     uint64(proto.Subsystem),
			rows:    len(g.idxs),
			off:     len(e.payload),
			featIdx: make([]int, 0, nf),
			featMin: make([]float64, nf),
			featMax: make([]float64, nf),
		}
		for _, n := range proto.FeatureNames {
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

		// Column 0: global row indexes (archive order).
		rowIdx := e.uvals[:0]
		for _, ri := range g.idxs {
			rowIdx = append(rowIdx, firstRow+uint64(ri))
		}
		e.uvals = rowIdx
		meta.rowLo, meta.rowHi = rowIdx[0], rowIdx[len(rowIdx)-1]
		e.colBuf = appendDeltaU(e.colBuf, rowIdx)
		endCol()

		// Column 1: PID, then columns 2..12: the 11 metrics, all
		// zigzag-delta varint. One pass over the rows fills every scratch
		// column — each TrainingPoint struct is touched once, not twelve
		// times.
		e.vals = e.vals[:0]
		for m := range e.mvals {
			e.mvals[m] = e.mvals[m][:0]
		}
		for _, ri := range g.idxs {
			p := &pts[ri]
			mt := &p.Metrics
			e.vals = append(e.vals, int64(p.PID))
			e.mvals[0] = append(e.mvals[0], mt.ElapsedNS)
			e.mvals[1] = append(e.mvals[1], int64(mt.Cycles))
			e.mvals[2] = append(e.mvals[2], int64(mt.Instructions))
			e.mvals[3] = append(e.mvals[3], int64(mt.CacheRefs))
			e.mvals[4] = append(e.mvals[4], int64(mt.CacheMisses))
			e.mvals[5] = append(e.mvals[5], int64(mt.RefCycles))
			e.mvals[6] = append(e.mvals[6], mt.DiskReadBytes)
			e.mvals[7] = append(e.mvals[7], mt.DiskWriteBytes)
			e.mvals[8] = append(e.mvals[8], mt.NetRecvBytes)
			e.mvals[9] = append(e.mvals[9], mt.NetSendBytes)
			e.mvals[10] = append(e.mvals[10], mt.AllocBytes)
		}
		meta.pidMin, meta.pidMax = minMax(e.vals)
		e.colBuf = appendDeltaI(e.colBuf, e.vals)
		endCol()
		for m := 0; m < NumMetrics; m++ {
			meta.minVal[m], meta.maxVal[m] = minMax(e.mvals[m])
			e.colBuf = appendDeltaI(e.colBuf, e.mvals[m])
			endCol()
		}

		// Feature columns: integral zigzag-delta when bit-exact, raw bits
		// otherwise. One pass decides the encoding and the zone map; NaNs
		// poison the zone map open (-Inf, +Inf).
		for f := 0; f < nf; f++ {
			integral := true
			sawNaN := false
			lo, hi := math.Inf(1), math.Inf(-1)
			e.vals = e.vals[:0]
			for _, ri := range g.idxs {
				v := pts[ri].Features[f]
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
				for _, ri := range g.idxs {
					e.colBuf = binary.LittleEndian.AppendUint64(e.colBuf, math.Float64bits(pts[ri].Features[f]))
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
		metas = append(metas, meta)
	}

	// Footer.
	f := e.footer[:0]
	f = binary.AppendUvarint(f, uint64(len(e.dict)))
	for _, s := range e.dict {
		f = binary.AppendUvarint(f, uint64(len(s)))
		f = append(f, s...)
	}
	f = binary.AppendUvarint(f, uint64(len(pts)))
	f = binary.AppendUvarint(f, uint64(len(metas)))
	for bi := range metas {
		m := &metas[bi]
		proto := &pts[order[bi].first]
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
		f = binary.AppendUvarint(f, uint64(len(proto.FeatureNames)))
		f = binary.AppendUvarint(f, uint64(len(m.featIdx)))
		for _, di := range m.featIdx {
			f = binary.AppendUvarint(f, uint64(di))
		}
		for mi := 0; mi < NumMetrics; mi++ {
			f = binary.AppendVarint(f, m.minVal[mi])
			f = binary.AppendVarint(f, m.maxVal[mi])
		}
		for fi := range m.featMin {
			f = binary.LittleEndian.AppendUint64(f, math.Float64bits(m.featMin[fi]))
			f = binary.LittleEndian.AppendUint64(f, math.Float64bits(m.featMax[fi]))
		}
	}
	e.footer = f

	// Wire form: header, payload, footer, checksum.
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, segMagic)
	dst = binary.LittleEndian.AppendUint32(dst, segVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.payload)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.footer)))
	dst = append(dst, e.payload...)
	dst = append(dst, e.footer...)
	h := fnv.New64a()
	_, _ = h.Write(dst[start:])
	dst = binary.LittleEndian.AppendUint64(dst, h.Sum64())
	return dst
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
