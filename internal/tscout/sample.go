package tscout

import (
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
// probe (§4.2); the rest from kernel-level probes (§4.1, §4.3, §4.4).
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

// MetricNames lists the metrics in sample order.
var MetricNames = []string{
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
	sampleMetricWords = 11
	sampleFixedWords  = sampleHeaderWords + sampleMetricWords
	// SampleMaxBytes is the largest sample the Collector emits; it must
	// fit the BPF stack alongside scratch space.
	SampleMaxBytes = (sampleFixedWords + MaxFeatures) * 8
)

// Word offsets of each metric inside the sample (after the header).
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

// EncodeSample builds the wire form of a sample; user-mode probes use it
// so the Processor sees one format regardless of collection mode.
func EncodeSample(ou OUID, pid int, m Metrics, features []uint64) []byte {
	buf := make([]byte, (sampleFixedWords+len(features))*8)
	put := func(word int, v uint64) { bpf.PutU64(buf[word*8:], v) }
	put(0, uint64(ou))
	put(1, uint64(pid))
	put(2, 0)
	put(3, uint64(len(features)))
	put(sampleHeaderWords+mwElapsed, uint64(m.ElapsedNS))
	put(sampleHeaderWords+mwCycles, m.Cycles)
	put(sampleHeaderWords+mwInstructions, m.Instructions)
	put(sampleHeaderWords+mwCacheRefs, m.CacheRefs)
	put(sampleHeaderWords+mwCacheMisses, m.CacheMisses)
	put(sampleHeaderWords+mwRefCycles, m.RefCycles)
	put(sampleHeaderWords+mwDiskRead, uint64(m.DiskReadBytes))
	put(sampleHeaderWords+mwDiskWrite, uint64(m.DiskWriteBytes))
	put(sampleHeaderWords+mwNetRecv, uint64(m.NetRecvBytes))
	put(sampleHeaderWords+mwNetSend, uint64(m.NetSendBytes))
	put(sampleHeaderWords+mwAlloc, uint64(m.AllocBytes))
	for i, f := range features {
		put(sampleFixedWords+i, f)
	}
	return buf
}

// Sample is the decoded wire form.
type Sample struct {
	OU       OUID
	PID      int
	Metrics  Metrics
	Features []uint64
}

// decodeHeader makes every structural check a sample gets — its length, that
// it is whole words, the feature count against MaxFeatures and against the
// buffer — and reads the header and the metrics in place. The feature words
// it vouches for (featureCount of them, read with featureWord) stay in buf;
// the returned Sample's Features is nil.
func decodeHeader(buf []byte) (Sample, error) {
	if len(buf) < sampleFixedWords*8 || len(buf)%8 != 0 {
		return Sample{}, fmt.Errorf("tscout: malformed sample of %d bytes", len(buf))
	}
	get := func(word int) uint64 { return bpf.U64(buf[word*8:]) }
	n := featureCount(buf)
	if n < 0 || n > MaxFeatures || sampleFixedWords+n > len(buf)/8 {
		return Sample{}, fmt.Errorf("tscout: sample feature count %d inconsistent with %d bytes", n, len(buf))
	}
	return Sample{
		OU:  OUID(get(0)),
		PID: int(get(1)),
		Metrics: Metrics{
			ElapsedNS:      int64(get(sampleHeaderWords + mwElapsed)),
			Cycles:         get(sampleHeaderWords + mwCycles),
			Instructions:   get(sampleHeaderWords + mwInstructions),
			CacheRefs:      get(sampleHeaderWords + mwCacheRefs),
			CacheMisses:    get(sampleHeaderWords + mwCacheMisses),
			RefCycles:      get(sampleHeaderWords + mwRefCycles),
			DiskReadBytes:  int64(get(sampleHeaderWords + mwDiskRead)),
			DiskWriteBytes: int64(get(sampleHeaderWords + mwDiskWrite)),
			NetRecvBytes:   int64(get(sampleHeaderWords + mwNetRecv)),
			NetSendBytes:   int64(get(sampleHeaderWords + mwNetSend)),
			AllocBytes:     int64(get(sampleHeaderWords + mwAlloc)),
		},
	}, nil
}

// featureCount reads header word 3 of a sample at least a header long: how
// many feature words it says follow the metrics.
func featureCount(buf []byte) int { return int(bpf.U64(buf[3*8:])) }

// featureWord reads feature word i of a sample decodeHeader accepted.
func featureWord(buf []byte, i int) uint64 { return bpf.U64(buf[(sampleFixedWords+i)*8:]) }

// DecodeSample parses a sample emitted by the Collector or a user-level
// probe: the header decode plus a copy of the feature words.
func DecodeSample(buf []byte) (Sample, error) {
	s, err := decodeHeader(buf)
	if err != nil {
		return Sample{}, err
	}
	s.Features = make([]uint64, featureCount(buf))
	for i := range s.Features {
		s.Features[i] = featureWord(buf, i)
	}
	return s, nil
}

// EncodeFusedFeatures packs the feature vectors of several OUs into the
// feature-word area of a single sample (paper §5.2, Fig. 4): the layout is
// [k, then per OU: ouID, nFeats, feats...]. The caller sends it with
// OU = FusedOUID; DecodeFusedFeatures inverts it.
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

// DecodeFusedFeatures parses the fused feature-word layout.
func DecodeFusedFeatures(words []uint64) ([]FusedPart, error) {
	if len(words) == 0 {
		return nil, fmt.Errorf("tscout: empty fused vector")
	}
	// words come off the wire: every count must be distrusted. A huge
	// part count would make the allocation below panic, and a huge
	// feature count wraps negative through int() so the i+n bounds check
	// passes and the slice expression panics — both reachable from
	// SubmitUserSample with attacker-shaped bytes (found by
	// FuzzProcessorDecode; a panic here kills the drain goroutine).
	k := int(words[0])
	if k < 0 || k > (len(words)-1)/2 {
		return nil, fmt.Errorf("tscout: fused vector claims %d parts in %d words", words[0], len(words))
	}
	parts := make([]FusedPart, 0, k)
	i := 1
	for p := 0; p < k; p++ {
		if i+2 > len(words) {
			return nil, fmt.Errorf("tscout: truncated fused vector")
		}
		ou := OUID(words[i])
		nw := words[i+1]
		i += 2
		if nw > uint64(len(words)-i) {
			return nil, fmt.Errorf("tscout: truncated fused features")
		}
		n := int(nw)
		parts = append(parts, FusedPart{OU: ou, Features: append([]uint64(nil), words[i:i+n]...)})
		i += n
	}
	return parts, nil
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
