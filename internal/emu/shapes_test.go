package emu

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"autovac/internal/isa"
	"autovac/internal/winapi"
	"autovac/internal/winenv"
)

// Opcode × operand-kind pin. Every instruction shape the validator
// accepts is executed in a small program three ways — stepped with
// RecordSteps, stepped without, and block-compiled — once on a
// taint-free machine (fused runs take the fast variant) and once after
// a taint source fired (fused runs take the taint-aware variant). The
// three traces must agree (recording must not perturb execution), and
// the recorded traces, Steps included, hash to a constant captured
// before stepping moved onto the compiled closures.

const shapeRecordingHash = "0c520b4a56b30171ba5353f74423f48f1086eb83103fd9761e86988f095f782c"

// Operand shapes: a register, an immediate, a symbolic memory operand
// and a register-based one whose base holds a (possibly tainted)
// address.
var (
	shapeReg    = isa.R(isa.EDX)
	shapeSrcReg = isa.R(isa.ECX)
	shapeImm    = isa.Imm(0x7F)
	shapeMemSym = isa.Operand{Kind: isa.KindMem, Sym: "buf", Imm: 8}
	shapeMemB   = isa.Mem(isa.EAX, 8)
)

var (
	writableShapes = []isa.Operand{shapeReg, shapeMemSym, shapeMemB}
	anyShapes      = []isa.Operand{shapeSrcReg, shapeImm, shapeMemSym, shapeMemB}
)

// shapeCase is one instruction shape: body emits it after the prologue.
type shapeCase struct {
	name string
	body func(b *isa.Builder)
}

// shapeCases enumerates every opcode with every operand-kind
// combination its validator shape accepts.
func shapeCases() []shapeCase {
	var cases []shapeCase
	add := func(name string, body func(b *isa.Builder)) {
		cases = append(cases, shapeCase{name, body})
	}
	two := func(op isa.Opcode, dsts, srcs []isa.Operand) {
		for _, d := range dsts {
			for _, s := range srcs {
				in := isa.Instr{Op: op, Dst: d, Src: s}
				add(in.String(), func(b *isa.Builder) { b.Raw(in) })
			}
		}
	}
	one := func(op isa.Opcode, dsts []isa.Operand) {
		for _, d := range dsts {
			in := isa.Instr{Op: op, Dst: d}
			add(in.String(), func(b *isa.Builder) { b.Raw(in) })
		}
	}
	for _, op := range []isa.Opcode{isa.MOV, isa.MOVB, isa.ADD, isa.SUB, isa.XOR,
		isa.AND, isa.OR, isa.SHL, isa.SHR} {
		two(op, writableShapes, anyShapes)
	}
	two(isa.CMP, anyShapes, anyShapes)
	two(isa.TEST, anyShapes, anyShapes)
	two(isa.LEA, []isa.Operand{shapeReg}, []isa.Operand{shapeMemSym, shapeMemB})
	one(isa.PUSH, anyShapes)
	one(isa.POP, writableShapes)
	one(isa.INC, writableShapes)
	one(isa.DEC, writableShapes)
	add("xor-clear", func(b *isa.Builder) { b.Xor(shapeSrcReg, shapeSrcReg) })
	add("nop", func(b *isa.Builder) { b.Nop() })
	add("halt", func(b *isa.Builder) { b.Halt() })
	add("jmp", func(b *isa.Builder) { b.Jmp("L").Nop().Label("L") })
	add("jmp-next", func(b *isa.Builder) { b.Jmp("L").Label("L") })
	add("call-ret", func(b *isa.Builder) { b.Call("f").Halt().Label("f").Ret() })
	add("callapi", func(b *isa.Builder) { b.CallAPI("GetTickCount") })
	add("callapi-args", func(b *isa.Builder) { b.CallAPI("OpenMutexA", isa.Sym("name")) })
	add("callapir", func(b *isa.Builder) {
		b.Mov(isa.R(isa.ESI), isa.Imm(winapi.ProcAddr("GetTickCount")))
		b.Add(isa.R(isa.ESI), isa.R(isa.EAX)).Sub(isa.R(isa.ESI), isa.R(isa.EAX))
		b.CallAPIR(isa.ESI)
	})
	jcc := map[string]func(b *isa.Builder, l string) *isa.Builder{
		"jz": (*isa.Builder).Jz, "jnz": (*isa.Builder).Jnz,
		"jl": (*isa.Builder).Jl, "jge": (*isa.Builder).Jge,
	}
	for _, name := range []string{"jz", "jnz", "jl", "jge"} {
		j := jcc[name]
		add(name+"/negative", func(b *isa.Builder) {
			j(b.Test(shapeSrcReg, shapeSrcReg), "L").Nop().Label("L")
		})
		add(name+"/zero", func(b *isa.Builder) {
			j(b.Cmp(shapeReg, shapeReg), "L").Nop().Label("L")
		})
	}
	return cases
}

// shapeProgram wraps one shape in a prologue that leaves EAX holding
// the address of buf, ECX a negative value, [buf+8] a copy of ECX, EDX
// a plain value and ECX on the stack. With tainted set, all of that
// derives from GetTickCount's result, so base, source, memory and
// stack carry taint and fused runs take the taint-aware variant.
func shapeProgram(sc shapeCase, tainted bool) *isa.Program {
	b := isa.NewBuilder("shape")
	b.Buf("buf", 64)
	b.RData("name", "SHAPE-MARKER")
	if tainted {
		b.CallAPI("GetTickCount")
	} else {
		b.Mov(isa.R(isa.EAX), isa.Imm(0x5A5A))
	}
	b.And(isa.R(isa.EAX), isa.Imm(0))
	b.Add(isa.R(isa.EAX), isa.Sym("buf"))
	b.Mov(isa.R(isa.ECX), isa.R(isa.EAX))
	b.Xor(isa.R(isa.ECX), isa.Imm(0x80000055))
	b.Mov(shapeMemB, isa.R(isa.ECX))
	b.Mov(shapeReg, isa.Imm(0x12340105))
	b.Push(isa.R(isa.ECX))
	sc.body(b)
	b.Halt()
	return b.MustBuild()
}

func TestOpcodeShapeRecordingParity(t *testing.T) {
	h := sha256.New()
	for _, sc := range shapeCases() {
		for _, tainted := range []bool{false, true} {
			prog := shapeProgram(sc, tainted)
			name := fmt.Sprintf("%s/tainted=%v", sc.name, tainted)
			rec, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{Seed: 5, RecordSteps: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rec.Fault != "" || len(rec.Steps) == 0 {
				t.Fatalf("%s: fault %q, %d steps", name, rec.Fault, len(rec.Steps))
			}
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s\n%s\n", name, b)
			rec.Steps = nil
			stepped, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{Seed: 5, DisableBlocks: true})
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(prog, winenv.New(winenv.DefaultIdentity()), Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			fused := c.Execute()
			// Fused runs take the fast variant until a source exists.
			if want := len(fused.Sources) > 0; c.liveTaint != want {
				t.Errorf("%s: fused run liveTaint = %v, want %v", name, c.liveTaint, want)
			}
			rj, sj, fj := traceJSON(t, rec), traceJSON(t, stepped), traceJSON(t, fused)
			if rj != sj || sj != fj {
				t.Errorf("%s: divergence\nrecorded: %s\nstepped:  %s\nfused:    %s", name, rj, sj, fj)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != shapeRecordingHash {
		t.Errorf("recorded shape traces diverged:\n got %s\nwant %s", got, shapeRecordingHash)
	}
}
