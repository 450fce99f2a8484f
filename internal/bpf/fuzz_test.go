package bpf

import (
	"errors"
	"regexp"
	"strconv"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file holds the differential fuzz targets for the verifier/VM
// contract (paper §5.1). The oracle, in both directions:
//
//   verifier accepts  ⇒ the VM executes without a runtime fault, within
//                       the instruction budget (budget exhaustion is only
//                       legitimate for programs containing a back-edge,
//                       since the declared LoopBound is not enforced —
//                       see DESIGN.md "accepted divergences"), and with
//                       every stack/map access in bounds (a violation
//                       would surface as ErrRuntime or a panic);
//   verifier rejects  ⇒ the error names a real location: either a
//                       whole-program defect or "insn N: ..." with N a
//                       valid pc — and verification is deterministic.

// fuzzMaxInsns bounds fuzzed program length so each exec stays fast.
const fuzzMaxInsns = 1024

var insnPCRe = regexp.MustCompile(`insn (\d+):`)

// checkRejection asserts a verifier error blames a real pc.
func checkRejection(t *testing.T, p *Program, err error) {
	t.Helper()
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("verifier error does not wrap ErrVerification: %v", err)
	}
	m := insnPCRe.FindStringSubmatch(err.Error())
	if m == nil {
		// Whole-program rejections (empty, too long, non-convergence)
		// carry no pc; everything else must.
		return
	}
	pc, perr := strconv.Atoi(m[1])
	if perr != nil || pc < 0 || pc >= len(p.Insns) {
		t.Fatalf("rejection names pc %s outside program of %d insns: %v", m[1], len(p.Insns), err)
	}
}

// checkAcceptedRuns asserts the accept side of the oracle: the program
// must load and run without a runtime fault. ErrInsnBudget is tolerated
// only for programs with a back-edge (lying LoopBound declarations are an
// accepted divergence); ErrRuntime is always a verifier bug. It then runs
// the interpreter-vs-JIT differential: compiled execution (or the decline
// fallback) must agree bit-exactly on R0, cost, helper trace, printk, and
// map end-states.
func checkAcceptedRuns(t *testing.T, p *Program, seed int64) {
	t.Helper()
	lp, err := Load(p, fuzzMaxInsns)
	if err != nil {
		t.Fatalf("Verify accepted but Load rejected: %v", err)
	}
	k := kernel.New(sim.LargeHW, seed, 0)
	task := k.NewTask("fuzz")
	_, cost, rerr := lp.Run(task, []uint64{1, 2, 3, 4})
	switch {
	case rerr == nil:
		if cost < 0 {
			t.Fatalf("negative execution cost %d", cost)
		}
	case errors.Is(rerr, ErrInsnBudget):
		if !hasBackEdge(p) {
			t.Fatalf("budget exhausted without a back-edge (%d insns):\n%s", len(p.Insns), p.Disassemble())
		}
	default:
		t.Fatalf("verified program faulted: %v\n%s", rerr, p.Disassemble())
	}
	assertCompiledAgreement(t, p, seed)
}

// FuzzVerify feeds raw instruction streams (the 20-byte wire form of
// gen.go) straight into the verifier. Most decode to garbage the verifier
// must reject with a meaningful pc; streams it accepts must run cleanly.
func FuzzVerify(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeInsns([]Insn{{Op: OpMovImm, Dst: R0}, {Op: OpExit}}))
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(EncodeInsns(GenProgram(seed, 20).Insns))
	}
	// Historical near-misses: backward jump without bound, cond jump last,
	// store through scalar, read of uninitialized stack.
	f.Add(EncodeInsns([]Insn{{Op: OpJa, Off: -1}}))
	f.Add(EncodeInsns([]Insn{{Op: OpMovImm, Dst: R0}, {Op: OpJeqImm, Dst: R0}}))
	f.Add(EncodeInsns([]Insn{{Op: OpStore, Dst: R1, Src: R2}, {Op: OpExit}}))
	f.Add(EncodeInsns([]Insn{{Op: OpLoad, Dst: R0, Src: R10, Off: -8}, {Op: OpExit}}))
	// Branches inside blocks, in forms the generator cannot express: a
	// taken register-form jump in the middle of its block, and an untaken
	// jset ending one.
	for _, c := range []struct {
		op  Op
		b   int64
		pos string
	}{{OpJgtReg, 1, "middle"}, {OpJsetImm, 1, "last"}} {
		p, _ := branchProgram(c.op, c.b, c.pos)
		f.Add(EncodeInsns(p.Insns))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		insns := DecodeInsns(data)
		if len(insns) == 0 {
			return
		}
		p := &Program{Name: "fuzz/raw", Insns: insns, Maps: NewGenMaps()}
		err1 := Verify(p, fuzzMaxInsns)
		err2 := Verify(p, fuzzMaxInsns)
		if (err1 == nil) != (err2 == nil) ||
			(err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("verifier nondeterministic: %v vs %v", err1, err2)
		}
		if err1 != nil {
			checkRejection(t, p, err1)
			return
		}
		checkAcceptedRuns(t, p, 1)
	})
}

// FuzzVerifyThenRun is the constructive+destructive differential target:
// a seeded valid-by-construction program must always verify and run; a
// mutated variant exercises the reject side with near-valid inputs, which
// reach much deeper verifier states than raw byte noise.
func FuzzVerifyThenRun(f *testing.F) {
	f.Add(int64(1), uint8(10), []byte{})
	f.Add(int64(8), uint8(9), []byte{0, 0, 0, 0})
	f.Add(int64(42), uint8(30), []byte{2, 7, 255, 255, 7, 3, 0, 0})
	f.Add(int64(99), uint8(36), []byte{6, 1, 0, 0, 5, 2, 128, 0})
	// Generated programs with conditional jumps as the first, a middle and
	// the last micro-op of a compiled block (see TestBranchMicroOps).
	f.Add(int64(100), uint8(11), []byte{})
	f.Add(int64(138), uint8(11), []byte{})

	f.Fuzz(func(t *testing.T, seed int64, steps uint8, mut []byte) {
		p := GenProgram(seed, int(steps%40)+1)
		if err := Verify(p, fuzzMaxInsns); err != nil {
			t.Fatalf("generated program rejected (generator or verifier bug): %v\n%s", err, p.Disassemble())
		}
		checkAcceptedRuns(t, p, seed)

		if len(mut) == 0 {
			return
		}
		mp := &Program{Name: "fuzz/mut", Insns: MutateInsns(p.Insns, mut), Maps: p.Maps}
		if len(mp.Insns) == 0 {
			return
		}
		if err := Verify(mp, fuzzMaxInsns); err != nil {
			checkRejection(t, mp, err)
			return
		}
		checkAcceptedRuns(t, mp, seed)
	})
}

// FuzzRingbuf differentially tests a one-CPU PerCPURing against a trivial
// model queue (Submit, DrainBatch incl. the unbounded max 0, Len, Reset,
// aggregate Stats): FIFO order,
// overwrite-oldest-on-full, and the accounting identity
// submitted == drained + dropped + pending at every step.
func FuzzRingbuf(f *testing.F) {
	f.Add(uint8(4), []byte{0x09, 0x11, 0x09, 0xFF, 0x00})
	f.Add(uint8(1), []byte{0x09, 0x09, 0x09, 0x11})
	f.Add(uint8(16), []byte{0x29, 0x31, 0x18, 0x02})

	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		capV := int(capacity%32) + 1
		rb := NewPerCPURing("fuzz/rb", 1, capV)

		type model struct {
			queue     [][]byte
			submitted int64
			dropped   int64
			drained   int64
		}
		var m model
		next := byte(0)

		for _, op := range ops {
			switch op & 0x7 {
			case 0, 1, 2: // submit a tagged sample
				payload := []byte{next, byte(op >> 3)}
				next++
				rb.Submit(payload)
				m.submitted++
				if len(m.queue) == capV {
					m.queue = m.queue[1:] // overwrite oldest
					m.dropped++
				}
				m.queue = append(m.queue, payload)
			case 3, 4: // drain up to max samples
				max := int(op >> 3)
				var got Batch
				rb.DrainBatch(0, &got, max)
				want := len(m.queue)
				if max > 0 && max < want {
					want = max
				}
				if got.Len() != want {
					t.Fatalf("Drain(%d): got %d samples, model has %d", max, got.Len(), want)
				}
				for i := 0; i < want; i++ {
					s, w := got.Sample(i), m.queue[i]
					if len(s) != len(w) || s[0] != w[0] || s[1] != w[1] {
						t.Fatalf("Drain order: sample %d = %v, model %v", i, s, w)
					}
				}
				m.queue = m.queue[want:]
				m.drained += int64(want)
			case 5: // stats identity
				st := rb.Stats()
				if st.Submitted != m.submitted || st.Dropped != m.dropped ||
					st.Pending != len(m.queue) || st.Capacity != capV {
					t.Fatalf("stats %+v, model %+v pending %d", st, m, len(m.queue))
				}
				if st.Submitted != m.drained+st.Dropped+int64(st.Pending) {
					t.Fatalf("identity violated: %+v drained %d", st, m.drained)
				}
			case 6: // len
				if rb.Len() != len(m.queue) {
					t.Fatalf("Len %d, model %d", rb.Len(), len(m.queue))
				}
			case 7: // reset
				rb.Reset()
				m = model{}
			}
		}
		st := rb.Stats()
		if st.Submitted != m.drained+st.Dropped+int64(st.Pending) {
			t.Fatalf("final identity violated: %+v drained %d", st, m.drained)
		}
	})
}

// FuzzPerCPURing differentially tests PerCPURing against one model queue
// per CPU: submissions route by CPU (with wrap-around for out-of-range
// values), each ring is an independent FIFO with overwrite-oldest-on-full,
// and both the per-ring and the aggregate accounting identities
// submitted == drained + dropped + pending hold at every step.
func FuzzPerCPURing(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{0x09, 0x51, 0x0B, 0xFF, 0x00})
	f.Add(uint8(1), uint8(1), []byte{0x09, 0x09, 0x0B, 0x15})
	f.Add(uint8(8), uint8(2), []byte{0x29, 0x71, 0x1B, 0x02, 0x05})

	f.Fuzz(func(t *testing.T, numCPUs, capacity uint8, ops []byte) {
		cpus := int(numCPUs%8) + 1
		capV := int(capacity%16) + 1
		r := NewPerCPURing("fuzz/percpu", cpus, capV)

		type model struct {
			queue     [][]byte
			submitted int64
			dropped   int64
			drained   int64
		}
		ms := make([]model, cpus)
		next := byte(0)
		var batch Batch

		for _, op := range ops {
			cpu := int(op>>3) % cpus
			switch op & 0x7 {
			case 0, 1: // submit a tagged sample from cpu
				payload := []byte{next, byte(op)}
				next++
				r.SubmitFrom(int(op>>3), payload) // ring wraps out-of-range itself
				m := &ms[cpu]
				m.submitted++
				if len(m.queue) == capV {
					m.queue = m.queue[1:]
					m.dropped++
				}
				m.queue = append(m.queue, payload)
			case 2: // legacy Submit routes to cpu 0
				payload := []byte{next, 0xEE}
				next++
				r.Submit(payload)
				m := &ms[0]
				m.submitted++
				if len(m.queue) == capV {
					m.queue = m.queue[1:]
					m.dropped++
				}
				m.queue = append(m.queue, payload)
			case 3, 4: // drain one ring into a reused batch
				max := cpu + 1 // reuse the routed cpu as a small max
				batch.Reset()
				n := r.DrainBatch(cpu, &batch, max)
				m := &ms[cpu]
				want := len(m.queue)
				if max < want {
					want = max
				}
				if n != batch.Len() || n != want {
					t.Fatalf("DrainBatch(cpu %d, max %d): n=%d batch=%d, model %d", cpu, max, n, batch.Len(), want)
				}
				for i := 0; i < n; i++ {
					s, w := batch.Sample(i), m.queue[i]
					if len(s) != len(w) || s[0] != w[0] || s[1] != w[1] {
						t.Fatalf("cpu %d drain order: sample %d = %v, model %v", cpu, i, s, w)
					}
				}
				m.queue = m.queue[want:]
				m.drained += int64(want)
			case 5: // per-ring and aggregate stats identities
				var aggSub, aggDrop, aggDrained int64
				var aggPending int
				for c := 0; c < cpus; c++ {
					st := r.RingStats(c)
					m := &ms[c]
					if st.Submitted != m.submitted || st.Dropped != m.dropped ||
						st.Drained != m.drained || st.Pending != len(m.queue) {
						t.Fatalf("cpu %d stats %+v, model %+v pending %d", c, st, m, len(m.queue))
					}
					if st.Submitted != st.Drained+st.Dropped+int64(st.Pending) {
						t.Fatalf("cpu %d identity violated: %+v", c, st)
					}
					aggSub += st.Submitted
					aggDrop += st.Dropped
					aggDrained += st.Drained
					aggPending += st.Pending
				}
				agg := r.Stats()
				if agg.Submitted != aggSub || agg.Dropped != aggDrop ||
					agg.Drained != aggDrained || agg.Pending != aggPending ||
					agg.Capacity != cpus*capV {
					t.Fatalf("aggregate stats %+v, summed {%d %d %d %d}", agg, aggSub, aggDrop, aggDrained, aggPending)
				}
			case 6: // len
				total := 0
				for c := range ms {
					total += len(ms[c].queue)
				}
				if r.Len() != total {
					t.Fatalf("Len %d, model %d", r.Len(), total)
				}
			case 7: // reset
				r.Reset()
				for c := range ms {
					ms[c] = model{}
				}
			}
		}
		st := r.Stats()
		var mDrained int64
		for c := range ms {
			mDrained += ms[c].drained
		}
		if st.Submitted != mDrained+st.Dropped+int64(st.Pending) {
			t.Fatalf("final aggregate identity violated: %+v drained %d", st, mDrained)
		}
	})
}
