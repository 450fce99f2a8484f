package tscout

import (
	"errors"
	"fmt"

	"tscout/internal/bpf"
)

// FusedOUID is the sentinel OU id marking a fused (vectorized) sample
// carrying features for several OUs executed under one measurement
// (JIT-compiled pipelines, paper §5.2).
const FusedOUID OUID = 0xFFFF

// Metrics is the output side of one training-data point: what the DBMS
// consumed while the OU ran (paper §2.3). Counter values are
// multiplexing-normalized. AllocBytes comes from the user-level memory
// probe (§4.2); the rest from kernel-level probes (§4.1, §4.3, §4.4). The
// fields are declared in MetricNames order.
type Metrics struct {
	ElapsedNS      int64
	Cycles         uint64
	Instructions   uint64
	CacheRefs      uint64
	CacheMisses    uint64
	RefCycles      uint64
	DiskReadBytes  int64
	DiskWriteBytes int64
	NetRecvBytes   int64
	NetSendBytes   int64
	AllocBytes     int64
}

// NumMetrics is how many metrics every sample and training point carries.
const NumMetrics = 11

// MetricNames lists the metrics in sample order: metric i is sample word
// 4+i, element i of Values and an archive's metric column i.
var MetricNames = [NumMetrics]string{
	"elapsed_ns", "cpu_cycles", "instructions", "cache_refs", "cache_misses",
	"ref_cycles", "disk_read_bytes", "disk_write_bytes",
	"net_recv_bytes", "net_send_bytes", "alloc_bytes",
}

// Sample binary layout, little-endian u64 words:
//
//	word 0            OU id (FusedOUID for vectorized samples)
//	word 1            task PID
//	word 2            flags (reserved)
//	word 3            nFeatures (feature words that follow the metrics)
//	words 4..14       the 11 metrics in MetricNames order
//	words 15..15+n-1  feature words
const (
	sampleHeaderWords = 4
	sampleFixedWords  = sampleHeaderWords + NumMetrics
	// SampleMaxBytes is the largest sample the Collector emits; it must
	// fit the BPF stack alongside scratch space.
	SampleMaxBytes = (sampleFixedWords + MaxFeatures) * 8
)

// Word offsets of each metric inside the sample (after the header), in
// MetricNames order.
const (
	mwElapsed = iota
	mwCycles
	mwInstructions
	mwCacheRefs
	mwCacheMisses
	mwRefCycles
	mwDiskRead
	mwDiskWrite
	mwNetRecv
	mwNetSend
	mwAlloc
)

// MetricIsCounter reports whether metric i (MetricNames order) is an
// unsigned PMU counter delta; every other metric is signed.
func MetricIsCounter(i int) bool { return i >= mwCycles && i <= mwRefCycles }

// Values returns m's metrics in MetricNames order, the unsigned counter
// deltas reinterpreted bit-wise as int64 — lossless, and undone by
// MetricsOf. Code that treats the metrics alike loops over these instead
// of naming each field.
func (m *Metrics) Values() [NumMetrics]int64 {
	return [NumMetrics]int64{m.ElapsedNS, int64(m.Cycles), int64(m.Instructions),
		int64(m.CacheRefs), int64(m.CacheMisses), int64(m.RefCycles), m.DiskReadBytes,
		m.DiskWriteBytes, m.NetRecvBytes, m.NetSendBytes, m.AllocBytes}
}

// MetricsOf is the inverse of Values: it builds Metrics from values in
// MetricNames order, reading the counter deltas' int64 bits as unsigned.
func MetricsOf(v *[NumMetrics]int64) Metrics {
	return Metrics{v[mwElapsed], uint64(v[mwCycles]), uint64(v[mwInstructions]),
		uint64(v[mwCacheRefs]), uint64(v[mwCacheMisses]), uint64(v[mwRefCycles]),
		v[mwDiskRead], v[mwDiskWrite], v[mwNetRecv], v[mwNetSend], v[mwAlloc]}
}

// EncodeSample builds the wire form of a sample, the layout the Collector's
// FEATURES program submits, trimmed to its feature words: it lets a caller
// put a hand-made sample on a ring.
func EncodeSample(ou OUID, pid int, m Metrics, features []uint64) []byte {
	buf := make([]byte, (sampleFixedWords+len(features))*8)
	put := func(word int, v uint64) { bpf.PutU64(buf[word*8:], v) }
	put(0, uint64(ou))
	put(1, uint64(pid))
	put(2, 0)
	put(3, uint64(len(features)))
	for i, v := range m.Values() {
		put(sampleHeaderWords+i, uint64(v))
	}
	for i, f := range features {
		put(sampleFixedWords+i, f)
	}
	return buf
}

// Errors a sample's structural checks report. Decoding counts them and
// moves on, so they carry no detail and cost no allocation.
var (
	errMalformedSample = errors.New("tscout: sample is not whole words of at least a header")
	errFeatureCount    = errors.New("tscout: sample feature count inconsistent with its length")
)

// decodePoint makes every structural check a sample gets — its length, that
// it is whole words, the feature count against MaxFeatures and against the
// buffer — and reads the PID and the metrics in place into tp, returning the
// sample's OU id. Nothing else of tp is written. The feature words it
// vouches for (featureCount of them, read with featureWord) stay in buf.
func decodePoint(tp *TrainingPoint, buf []byte) (OUID, error) {
	if len(buf) < sampleFixedWords*8 || len(buf)%8 != 0 {
		return 0, errMalformedSample
	}
	if n := featureCount(buf); n < 0 || n > MaxFeatures || sampleFixedWords+n > len(buf)/8 {
		return 0, errFeatureCount
	}
	w := buf[:sampleFixedWords*8]
	get := func(word int) uint64 { return bpf.U64(w[word*8:]) }
	m := &tp.Metrics
	m.ElapsedNS = int64(get(sampleHeaderWords + mwElapsed))
	m.Cycles = get(sampleHeaderWords + mwCycles)
	m.Instructions = get(sampleHeaderWords + mwInstructions)
	m.CacheRefs = get(sampleHeaderWords + mwCacheRefs)
	m.CacheMisses = get(sampleHeaderWords + mwCacheMisses)
	m.RefCycles = get(sampleHeaderWords + mwRefCycles)
	m.DiskReadBytes = int64(get(sampleHeaderWords + mwDiskRead))
	m.DiskWriteBytes = int64(get(sampleHeaderWords + mwDiskWrite))
	m.NetRecvBytes = int64(get(sampleHeaderWords + mwNetRecv))
	m.NetSendBytes = int64(get(sampleHeaderWords + mwNetSend))
	m.AllocBytes = int64(get(sampleHeaderWords + mwAlloc))
	tp.PID = int(get(1))
	return OUID(get(0)), nil
}

// featureCount reads header word 3 of a sample at least a header long: how
// many feature words it says follow the metrics.
func featureCount(buf []byte) int { return int(bpf.U64(buf[3*8:])) }

// featureWord reads feature word i of a sample decodePoint accepted.
func featureWord(buf []byte, i int) uint64 { return bpf.U64(buf[(sampleFixedWords+i)*8:]) }

// EncodeFusedFeatures packs the feature vectors of several OUs into the
// feature-word area of a single sample (paper §5.2, Fig. 4): the layout is
// [k, then per OU: ouID, nFeats, feats...]. The caller sends it with
// OU = FusedOUID; the Processor's fusedParts inverts it.
func EncodeFusedFeatures(parts []FusedPart) ([]uint64, error) {
	words := []uint64{uint64(len(parts))}
	for _, p := range parts {
		words = append(words, uint64(p.OU), uint64(len(p.Features)))
		words = append(words, p.Features...)
	}
	if len(words) > MaxFeatures {
		return nil, fmt.Errorf("tscout: fused feature vector needs %d words, max %d", len(words), MaxFeatures)
	}
	return words, nil
}

// FusedPart is one OU's slice of a fused sample.
type FusedPart struct {
	OU       OUID
	Features []uint64
}

// TrainingPoint is the Processor's output: one (features -> metrics)
// example for a behavior model (paper §2.1).
type TrainingPoint struct {
	OU           OUID
	OUName       string
	Subsystem    SubsystemID
	PID          int
	Features     []float64
	FeatureNames []string
	Metrics      Metrics
}
