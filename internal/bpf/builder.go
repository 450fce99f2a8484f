package bpf

import (
	"errors"
	"fmt"
)

// Builder assembles programs with symbolic labels, so TScout's Codegen can
// emit Collector code without computing jump displacements by hand. All
// emit methods return the builder for chaining; errors (duplicate or
// unresolved labels) are accumulated and reported by Build.
type Builder struct {
	name   string
	insns  []Insn
	maps   []Map
	labels map[string]int
	fixups []fixup
	errs   []error
}

type fixup struct {
	insn  int
	label string
}

// NewBuilder creates an empty program builder.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// AddMap registers a map with the program and returns its index for
// LoadMapPtr.
func (b *Builder) AddMap(m Map) int {
	b.maps = append(b.maps, m)
	return len(b.maps) - 1
}

// Label defines a jump target at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate label %q", name))
		return b
	}
	b.labels[name] = len(b.insns)
	return b
}

func (b *Builder) emit(in Insn) *Builder {
	b.insns = append(b.insns, in)
	return b
}

func (b *Builder) emitJump(in Insn, label string) *Builder {
	b.fixups = append(b.fixups, fixup{insn: len(b.insns), label: label})
	return b.emit(in)
}

// Mov sets dst to an immediate.
func (b *Builder) Mov(dst Reg, imm int64) *Builder {
	return b.emit(Insn{Op: OpMovImm, Dst: dst, Imm: imm})
}

// MovReg copies src into dst.
func (b *Builder) MovReg(dst, src Reg) *Builder {
	return b.emit(Insn{Op: OpMovReg, Dst: dst, Src: src})
}

// Add adds an immediate to dst.
func (b *Builder) Add(dst Reg, imm int64) *Builder {
	return b.emit(Insn{Op: OpAddImm, Dst: dst, Imm: imm})
}

// AddReg adds src to dst.
func (b *Builder) AddReg(dst, src Reg) *Builder {
	return b.emit(Insn{Op: OpAddReg, Dst: dst, Src: src})
}

// Sub subtracts an immediate from dst.
func (b *Builder) Sub(dst Reg, imm int64) *Builder {
	return b.emit(Insn{Op: OpSubImm, Dst: dst, Imm: imm})
}

// SubReg subtracts src from dst.
func (b *Builder) SubReg(dst, src Reg) *Builder {
	return b.emit(Insn{Op: OpSubReg, Dst: dst, Src: src})
}

// MulReg multiplies dst by src.
func (b *Builder) MulReg(dst, src Reg) *Builder {
	return b.emit(Insn{Op: OpMulReg, Dst: dst, Src: src})
}

// DivReg divides dst (unsigned) by src; division by zero yields zero.
func (b *Builder) DivReg(dst, src Reg) *Builder {
	return b.emit(Insn{Op: OpDivReg, Dst: dst, Src: src})
}

// Lsh shifts dst left by an immediate.
func (b *Builder) Lsh(dst Reg, imm int64) *Builder {
	return b.emit(Insn{Op: OpLshImm, Dst: dst, Imm: imm})
}

// Rsh shifts dst right (logical) by an immediate.
func (b *Builder) Rsh(dst Reg, imm int64) *Builder {
	return b.emit(Insn{Op: OpRshImm, Dst: dst, Imm: imm})
}

// Load loads *(u64*)(src+off) into dst.
func (b *Builder) Load(dst, src Reg, off int32) *Builder {
	return b.emit(Insn{Op: OpLoad, Dst: dst, Src: src, Off: off})
}

// Store writes src to *(u64*)(dst+off).
func (b *Builder) Store(dst Reg, off int32, src Reg) *Builder {
	return b.emit(Insn{Op: OpStore, Dst: dst, Src: src, Off: off})
}

// StoreImm writes an immediate to *(u64*)(dst+off).
func (b *Builder) StoreImm(dst Reg, off int32, imm int64) *Builder {
	return b.emit(Insn{Op: OpStoreImm, Dst: dst, Imm: imm, Off: off})
}

// LoadMapPtr materializes map handle mapIdx into dst.
func (b *Builder) LoadMapPtr(dst Reg, mapIdx int) *Builder {
	return b.emit(Insn{Op: OpLoadMapPtr, Dst: dst, Imm: int64(mapIdx)})
}

// Jeq jumps to label if dst == imm.
func (b *Builder) Jeq(dst Reg, imm int64, label string) *Builder {
	return b.emitJump(Insn{Op: OpJeqImm, Dst: dst, Imm: imm}, label)
}

// Jne jumps to label if dst != imm.
func (b *Builder) Jne(dst Reg, imm int64, label string) *Builder {
	return b.emitJump(Insn{Op: OpJneImm, Dst: dst, Imm: imm}, label)
}

// Jgt jumps to label if dst > imm (unsigned).
func (b *Builder) Jgt(dst Reg, imm int64, label string) *Builder {
	return b.emitJump(Insn{Op: OpJgtImm, Dst: dst, Imm: imm}, label)
}

// Jge jumps to label if dst >= imm (unsigned).
func (b *Builder) Jge(dst Reg, imm int64, label string) *Builder {
	return b.emitJump(Insn{Op: OpJgeImm, Dst: dst, Imm: imm}, label)
}

// Jle jumps to label if dst <= imm (unsigned).
func (b *Builder) Jle(dst Reg, imm int64, label string) *Builder {
	return b.emitJump(Insn{Op: OpJleImm, Dst: dst, Imm: imm}, label)
}

// JeqReg jumps to label if dst == src.
func (b *Builder) JeqReg(dst, src Reg, label string) *Builder {
	return b.emitJump(Insn{Op: OpJeqReg, Dst: dst, Src: src}, label)
}

// JneReg jumps to label if dst != src.
func (b *Builder) JneReg(dst, src Reg, label string) *Builder {
	return b.emitJump(Insn{Op: OpJneReg, Dst: dst, Src: src}, label)
}

// Call invokes a helper by ID.
func (b *Builder) Call(helper int64) *Builder {
	return b.emit(Insn{Op: OpCall, Imm: helper})
}

// Exit returns R0 to the kernel.
func (b *Builder) Exit() *Builder {
	return b.emit(Insn{Op: OpExit})
}

// Build resolves labels and returns the assembled (unverified) program.
func (b *Builder) Build() (*Program, error) {
	errs := append([]error(nil), b.errs...)
	insns := append([]Insn(nil), b.insns...)
	for _, f := range b.fixups {
		tgt, ok := b.labels[f.label]
		if !ok {
			errs = append(errs, fmt.Errorf("undefined label %q", f.label))
			continue
		}
		insns[f.insn].Off = int32(tgt - f.insn - 1)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("bpf: assembly of %q failed: %w", b.name, errors.Join(errs...))
	}
	return &Program{Name: b.name, Insns: insns, Maps: append([]Map(nil), b.maps...)}, nil
}

// MustBuild is Build for statically-known-good programs in tests and
// examples; it panics on assembly errors.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
