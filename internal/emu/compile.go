package emu

import (
	"fmt"

	"autovac/internal/isa"
	"autovac/internal/taint"
	"autovac/internal/trace"
)

// Every opcode has one implementation: at predecode time each
// instruction is compiled into a taint-aware closure (decoded.ops,
// one per pc) with no opcode or operand-kind dispatch left in it.
//
//   - Tier 1 (step) runs one closure per instruction. With RecordSteps
//     on, the load/store/flag helpers below note each access into the
//     step's read/write sets, conditional jumps note the flags read,
//     apply InvertBranches and report Taken, and step wraps the result
//     into a trace.Step: stepping is a compiled run of length one.
//   - Tier 2 carves the basic-block partition (isa.Program.BlockSpans —
//     the same leader rule static.BuildCFG uses) into straight-line
//     runs split at every CALLAPI/CALLAPIR, and executes a run's
//     closures back-to-back. A run's taint-aware body is a subslice of
//     ops; its all-untainted fast body is a specialisation used while
//     the CPU has never allocated a taint source (CPU.liveTaint). Taint
//     enters only through API source allocation, and runs never contain
//     an API call, so the invariant cannot break mid-run.
//
// Runs are bypassed whenever per-step fidelity is needed: step
// recording, forced execution (branch inversion), a run that does not
// fit the remaining step budget, or Options.DisableBlocks. The tiers
// are byte-identical — pinned by the parity tests here and the corpus
// golden hash in core.

// opFn executes one instruction. Its caller sets c.pc to the
// fall-through pc first; control transfers overwrite it.
type opFn func(c *CPU) error

// compiledRun is one API-call-free straight-line run of a basic block.
type compiledRun struct {
	// slow is the taint-aware body (a subslice of the per-pc ops);
	// fast assumes a taint-free machine.
	slow, fast []opFn
	// end is the pc after the run's last instruction.
	end int
}

// runCompiled executes one fused run. StepCount is charged up front and
// corrected on the (cold) fault path so the count matches step-wise
// execution exactly: the faulting instruction is counted, the rest of
// the run is not.
func (c *CPU) runCompiled(r *compiledRun) error {
	fns := r.slow
	if !c.liveTaint {
		fns = r.fast
	}
	c.tr.StepCount += len(fns)
	c.pc = r.end
	for i, f := range fns {
		if err := f(c); err != nil {
			c.tr.StepCount -= len(fns) - (i + 1)
			return err
		}
	}
	return nil
}

// compile builds the program's per-pc closures and the tier-2 run
// table: a run at every run start (block leader or post-API-call
// resume point), nil elsewhere.
func compile(p *isa.Program, d *decoded) {
	n := len(d.instrs)
	d.ops = make([]opFn, n)
	fast := make([]opFn, n)
	for pc := range d.instrs {
		d.ops[pc], fast[pc] = compileInstr(&d.instrs[pc], pc)
	}
	d.runs = make([]*compiledRun, n)
	for _, sp := range p.BlockSpans() { // predecode already validated p
		start := sp.Start
		for pc := sp.Start; pc <= sp.End; pc++ {
			// API calls have no fast variant and end a run.
			if pc < sp.End && fast[pc] != nil {
				continue
			}
			if pc > start {
				d.runs[start] = &compiledRun{slow: d.ops[start:pc:pc], fast: fast[start:pc:pc], end: pc}
			}
			start = pc + 1
		}
	}
}

// compileInstr builds the taint-aware closure of one instruction and,
// except for API calls, its all-untainted fast variant.
func compileInstr(in *dInstr, pc int) (slow, fast opFn) {
	switch in.op {
	case isa.NOP:
		f := func(*CPU) error { return nil }
		return f, f

	case isa.MOV:
		return compileMov(in)

	case isa.MOVB:
		ld, ldf := loadByte(in.src), loadByteFast(in.src)
		st, stf := storeByte(in.dst), storeByteFast(in.dst)
		return moveVia(ld, st), moveFast(ldf, stf)

	case isa.LEA:
		src := in.src
		st, stf := store(in.dst), storeFast(in.dst)
		slow = func(c *CPU) error {
			addr, t := c.addr(src)
			return st(c, addr, t)
		}
		return slow, func(c *CPU) error { return stf(c, src.val+c.base(src)) }

	case isa.PUSH:
		ld, ldf := load(in.dst), loadFast(in.dst)
		slow = func(c *CPU) error {
			v, t, err := ld(c)
			if err != nil {
				return err
			}
			return c.push(v, t)
		}
		fast = func(c *CPU) error {
			v, err := ldf(c)
			if err != nil {
				return err
			}
			return c.push(v, taint.Set{})
		}
		return slow, fast

	case isa.POP:
		st, stf := store(in.dst), storeFast(in.dst)
		slow = func(c *CPU) error {
			v, t, err := c.pop()
			if err != nil {
				return err
			}
			return st(c, v, t)
		}
		fast = func(c *CPU) error {
			v, _, err := c.pop()
			if err != nil {
				return err
			}
			return stf(c, v)
		}
		return slow, fast

	case isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR, isa.CMP, isa.TEST:
		return compileALU(in.op, in.dst, in.src, in.clearsTaint, pc)

	case isa.INC:
		return compileALU(isa.ADD, in.dst, dOperand{kind: isa.KindImm, val: 1}, false, pc)

	case isa.DEC:
		return compileALU(isa.SUB, in.dst, dOperand{kind: isa.KindImm, val: 1}, false, pc)

	case isa.JMP:
		target := in.target
		f := func(c *CPU) error {
			c.pc, c.taken = target, true
			return nil
		}
		return f, f

	case isa.JZ, isa.JNZ, isa.JL, isa.JGE:
		return compileJcc(in.op, in.target, pc)

	case isa.CALL:
		target, ret := in.target, pc+1
		f := func(c *CPU) error {
			if err := c.push(uint32(ret), taint.Set{}); err != nil {
				return err
			}
			c.callStack = append(c.callStack, ret)
			c.pc = target
			return nil
		}
		return f, f

	case isa.RET:
		f := func(c *CPU) error {
			v, _, err := c.pop()
			if err != nil {
				return err
			}
			if len(c.callStack) == 0 {
				return fmt.Errorf("emu: ret with empty call stack at pc %d", pc)
			}
			c.callStack = c.callStack[:len(c.callStack)-1]
			c.pc = int(v)
			return nil
		}
		return f, f

	case isa.CALLAPI:
		api, nArgs := in.api, in.nArgs
		return func(c *CPU) error { return c.callAPI(pc, api, nArgs) }, nil

	case isa.CALLAPIR:
		// Indirect call: the register holds an address the loader
		// issued (GetProcAddress result or an export-table walk). An
		// address outside the binding faults — there is nothing there
		// to execute.
		ld, nArgs := load(in.dst), in.nArgs
		return func(c *CPU) error {
			v, _, err := ld(c)
			if err != nil {
				return err
			}
			api, ok := Loader().APIAt(v)
			if !ok {
				return fmt.Errorf("emu: callapir to unresolved address %#x at pc %d", v, pc)
			}
			return c.callAPI(pc, api, nArgs)
		}, nil

	case isa.HALT:
		f := func(c *CPU) error {
			c.done = true
			c.exitKind = trace.ExitHalt
			return nil
		}
		return f, f

	default:
		op := in.op
		f := func(*CPU) error { return fmt.Errorf("emu: unknown opcode %v at pc %d", op, pc) }
		return f, f
	}
}

// moveVia fuses a taint-aware load into a store.
func moveVia(ld func(*CPU) (uint32, taint.Set, error), st func(*CPU, uint32, taint.Set) error) opFn {
	return func(c *CPU) error {
		v, t, err := ld(c)
		if err != nil {
			return err
		}
		return st(c, v, t)
	}
}

// moveFast fuses an untainted load into a store.
func moveFast(ld func(*CPU) (uint32, error), st func(*CPU, uint32) error) opFn {
	return func(c *CPU) error {
		v, err := ld(c)
		if err != nil {
			return err
		}
		return st(c, v)
	}
}

// compileMov fuses MOV. Register destinations with a register or
// immediate source — the shape stalling loops are made of — read their
// operand directly on both variants.
func compileMov(in *dInstr) (slow, fast opFn) {
	if dst, src := in.dst.reg, in.src; in.dst.kind == isa.KindReg && src.kind != isa.KindMem {
		slow = func(c *CPU) error {
			v, t := c.regOrImm(&src)
			c.reg[dst], c.regTaint[dst] = v, t
			c.noteWrite(trace.RegLoc(dst), v, nil)
			return nil
		}
		if src.kind == isa.KindImm {
			return slow, func(c *CPU) error { c.reg[dst] = src.val; return nil }
		}
		return slow, func(c *CPU) error { c.reg[dst] = c.reg[src.reg]; return nil }
	}
	return moveVia(load(in.src), store(in.dst)), moveFast(loadFast(in.src), storeFast(in.dst))
}

// aluFunc returns the arithmetic of one ALU opcode; CMP and TEST
// compute SUB and AND without storing the result.
func aluFunc(op isa.Opcode) func(a, b uint32) uint32 {
	switch op {
	case isa.ADD:
		return func(a, b uint32) uint32 { return a + b }
	case isa.SUB, isa.CMP:
		return func(a, b uint32) uint32 { return a - b }
	case isa.XOR:
		return func(a, b uint32) uint32 { return a ^ b }
	case isa.AND, isa.TEST:
		return func(a, b uint32) uint32 { return a & b }
	case isa.OR:
		return func(a, b uint32) uint32 { return a | b }
	case isa.SHL:
		return func(a, b uint32) uint32 { return a << (b & 31) }
	default: // SHR
		return func(a, b uint32) uint32 { return a >> (b & 31) }
	}
}

// compileALU fuses the two-operand ALU ops (INC/DEC arrive as ADD/SUB
// of an immediate 1) and the CMP/TEST predicates, including the
// predecoded x-xor-x taint-clear idiom. As in compileMov, a register
// destination with a register or immediate source reads its operands
// directly on both variants.
func compileALU(op isa.Opcode, dst, src dOperand, clears bool, pc int) (slow, fast opFn) {
	alu := aluFunc(op)
	writes := !op.IsPredicate()
	if r := dst.reg; dst.kind == isa.KindReg && src.kind != isa.KindMem {
		slow = func(c *CPU) error {
			a, ta := c.regOrImm(&dst)
			b, tb := c.regOrImm(&src)
			v, t := alu(a, b), ta.Union(tb)
			if clears {
				t = taint.Set{}
			}
			if writes {
				c.reg[r], c.regTaint[r] = v, t
				c.noteWrite(trace.RegLoc(r), v, nil)
			}
			c.setALUFlags(v, t, !writes, pc)
			return nil
		}
		// The fast variants are split by source kind and by whether the
		// result is stored, and ADD/SUB of an immediate (counters,
		// INC/DEC) skip alu: this is the dispatch the untainted loops
		// tier 2 exists for would otherwise pay per instruction.
		if imm := src.val; src.kind == isa.KindImm {
			if op == isa.ADD || op == isa.SUB {
				if op == isa.SUB {
					imm = -imm
				}
				return slow, func(c *CPU) error {
					v := c.reg[r] + imm
					c.reg[r] = v
					c.zf, c.sf = v == 0, int32(v) < 0
					return nil
				}
			}
			if !writes {
				return slow, func(c *CPU) error {
					v := alu(c.reg[r], imm)
					c.zf, c.sf = v == 0, int32(v) < 0
					return nil
				}
			}
			return slow, func(c *CPU) error {
				v := alu(c.reg[r], imm)
				c.reg[r] = v
				c.zf, c.sf = v == 0, int32(v) < 0
				return nil
			}
		}
		s := src.reg
		if !writes {
			return slow, func(c *CPU) error {
				v := alu(c.reg[r], c.reg[s])
				c.zf, c.sf = v == 0, int32(v) < 0
				return nil
			}
		}
		return slow, func(c *CPU) error {
			v := alu(c.reg[r], c.reg[s])
			c.reg[r] = v
			c.zf, c.sf = v == 0, int32(v) < 0
			return nil
		}
	}
	ldd, lds := load(dst), load(src)
	lddf, ldsf := loadFast(dst), loadFast(src)
	var st func(*CPU, uint32, taint.Set) error
	var stf func(*CPU, uint32) error
	if writes {
		st, stf = store(dst), storeFast(dst)
	}
	slow = func(c *CPU) error {
		a, ta, err := ldd(c)
		if err != nil {
			return err
		}
		b, tb, err := lds(c)
		if err != nil {
			return err
		}
		v, t := alu(a, b), ta.Union(tb)
		if clears {
			t = taint.Set{}
		}
		if writes {
			if err := st(c, v, t); err != nil {
				return err
			}
		}
		c.setALUFlags(v, t, !writes, pc)
		return nil
	}
	return slow, func(c *CPU) error {
		a, err := lddf(c)
		if err != nil {
			return err
		}
		b, err := ldsf(c)
		if err != nil {
			return err
		}
		v := alu(a, b)
		if writes {
			if err := stf(c, v); err != nil {
				return err
			}
		}
		c.zf, c.sf = v == 0, int32(v) < 0
		return nil
	}
}

// setALUFlags sets the flags from an ALU result. A compare-only
// instruction with a tainted result is AUTOVAC's Phase-I signal — a
// branch depends on system-resource data (§III-B) — and is recorded
// as a tainted predicate at pc. Fast variants never see one: no taint
// source exists yet.
func (c *CPU) setALUFlags(v uint32, t taint.Set, compare bool, pc int) {
	c.setFlags(v, t)
	if compare && !t.Empty() {
		c.tr.Predicates = append(c.tr.Predicates, trace.PredicateHit{
			PC: pc, Sources: t.Sources(),
		})
	}
}

// compileJcc builds a conditional jump: JZ/JNZ test ZF, JL/JGE test SF,
// and JNZ/JGE negate the test. The taint-aware variant also notes the
// flags read, applies forced execution's InvertBranches and reports
// Taken; the fast variants test their flag directly.
func compileJcc(op isa.Opcode, target, pc int) (slow, fast opFn) {
	onSF := op == isa.JL || op == isa.JGE
	neg := op == isa.JNZ || op == isa.JGE
	slow = func(c *CPU) error {
		c.noteRead(trace.FlagsLoc(), flagBits(c.zf, c.sf), nil)
		jump := c.flag(onSF) != neg
		if len(c.opts.InvertBranches) > 0 && c.invertBranch(pc) {
			jump = !jump
		}
		if c.taken = jump; jump {
			c.pc = target
		}
		return nil
	}
	switch op {
	case isa.JZ:
		return slow, func(c *CPU) error {
			if c.zf {
				c.pc = target
			}
			return nil
		}
	case isa.JNZ:
		return slow, func(c *CPU) error {
			if !c.zf {
				c.pc = target
			}
			return nil
		}
	case isa.JL:
		return slow, func(c *CPU) error {
			if c.sf {
				c.pc = target
			}
			return nil
		}
	}
	return slow, func(c *CPU) error {
		if !c.sf {
			c.pc = target
		}
		return nil
	}
}

// flag returns SF or ZF.
func (c *CPU) flag(sf bool) bool {
	if sf {
		return c.sf
	}
	return c.zf
}

// regOrImm reads a register or immediate operand with its taint,
// noting a register read.
func (c *CPU) regOrImm(o *dOperand) (uint32, taint.Set) {
	if o.kind == isa.KindImm {
		return o.val, taint.Set{}
	}
	c.noteRead(trace.RegLoc(o.reg), c.reg[o.reg], nil)
	return c.reg[o.reg], c.regTaint[o.reg]
}

// addr computes a memory operand's effective address and the taint of
// the address computation (the base register's), noting the base read.
func (c *CPU) addr(o dOperand) (uint32, taint.Set) {
	if !o.hasBase {
		return o.val, taint.Set{}
	}
	c.noteRead(trace.RegLoc(o.reg), c.reg[o.reg], nil)
	return o.val + c.reg[o.reg], c.regTaint[o.reg]
}

// base is the fast path's base-register contribution to an address.
func (c *CPU) base(o dOperand) uint32 {
	if o.hasBase {
		return c.reg[o.reg]
	}
	return 0
}

// load compiles a 32-bit operand read with taint, noting the accesses.
func load(o dOperand) func(c *CPU) (uint32, taint.Set, error) {
	switch o.kind {
	case isa.KindReg:
		r := o.reg
		return func(c *CPU) (uint32, taint.Set, error) {
			c.noteRead(trace.RegLoc(r), c.reg[r], nil)
			return c.reg[r], c.regTaint[r], nil
		}
	case isa.KindImm:
		v := o.val
		return func(*CPU) (uint32, taint.Set, error) { return v, taint.Set{}, nil }
	}
	return func(c *CPU) (uint32, taint.Set, error) {
		addr, at := c.addr(o)
		v, t, err := c.mem.readWord(addr)
		if err != nil {
			return 0, taint.Set{}, err
		}
		c.noteRead(trace.MemLoc(addr, 4), v, nil)
		return v, t.Union(at), nil
	}
}

// loadFast compiles a 32-bit operand read for the taint-free machine.
func loadFast(o dOperand) func(c *CPU) (uint32, error) {
	switch o.kind {
	case isa.KindReg:
		r := o.reg
		return func(c *CPU) (uint32, error) { return c.reg[r], nil }
	case isa.KindImm:
		v := o.val
		return func(*CPU) (uint32, error) { return v, nil }
	}
	return func(c *CPU) (uint32, error) {
		v, _, err := c.mem.readWord(o.val + c.base(o))
		return v, err
	}
}

// store compiles a 32-bit operand write with taint, noting the
// accesses.
func store(o dOperand) func(c *CPU, v uint32, t taint.Set) error {
	if o.kind == isa.KindReg {
		r := o.reg
		return func(c *CPU, v uint32, t taint.Set) error {
			c.reg[r] = v
			c.regTaint[r] = t
			c.noteWrite(trace.RegLoc(r), v, nil)
			return nil
		}
	}
	return func(c *CPU, v uint32, t taint.Set) error {
		addr, _ := c.addr(o)
		if err := c.mem.writeWord(addr, v, t); err != nil {
			return err
		}
		c.noteWrite(trace.MemLoc(addr, 4), v, nil)
		return nil
	}
}

// storeFast compiles a 32-bit operand write for the taint-free machine.
func storeFast(o dOperand) func(c *CPU, v uint32) error {
	if o.kind == isa.KindReg {
		r := o.reg
		return func(c *CPU, v uint32) error { c.reg[r] = v; return nil }
	}
	return func(c *CPU, v uint32) error {
		return c.mem.writeWord(o.val+c.base(o), v, taint.Set{})
	}
}

// loadByte compiles an 8-bit operand read with taint, noting the
// accesses (a register read notes the full register).
func loadByte(o dOperand) func(c *CPU) (uint32, taint.Set, error) {
	switch o.kind {
	case isa.KindReg:
		r := o.reg
		return func(c *CPU) (uint32, taint.Set, error) {
			c.noteRead(trace.RegLoc(r), c.reg[r], nil)
			return c.reg[r] & 0xFF, c.regTaint[r], nil
		}
	case isa.KindImm:
		v := o.val & 0xFF
		return func(*CPU) (uint32, taint.Set, error) { return v, taint.Set{}, nil }
	}
	return func(c *CPU) (uint32, taint.Set, error) {
		addr, at := c.addr(o)
		b, t, err := c.mem.readByte(addr)
		if err != nil {
			return 0, taint.Set{}, err
		}
		c.noteRead(trace.MemLoc(addr, 1), uint32(b), nil)
		return uint32(b), t.Union(at), nil
	}
}

// loadByteFast compiles an 8-bit operand read for the taint-free
// machine.
func loadByteFast(o dOperand) func(c *CPU) (uint32, error) {
	switch o.kind {
	case isa.KindReg:
		r := o.reg
		return func(c *CPU) (uint32, error) { return c.reg[r] & 0xFF, nil }
	case isa.KindImm:
		v := o.val & 0xFF
		return func(*CPU) (uint32, error) { return v, nil }
	}
	return func(c *CPU) (uint32, error) {
		b, _, err := c.mem.readByte(o.val + c.base(o))
		return uint32(b), err
	}
}

// storeByte compiles an 8-bit operand write with taint, noting the
// accesses. Register byte stores merge taint: the high bytes keep
// their provenance.
func storeByte(o dOperand) func(c *CPU, v uint32, t taint.Set) error {
	if o.kind == isa.KindReg {
		r := o.reg
		return func(c *CPU, v uint32, t taint.Set) error {
			c.reg[r] = (c.reg[r] &^ 0xFF) | (v & 0xFF)
			c.regTaint[r] = c.regTaint[r].Union(t)
			c.noteWrite(trace.RegLoc(r), c.reg[r], nil)
			return nil
		}
	}
	return func(c *CPU, v uint32, t taint.Set) error {
		addr, _ := c.addr(o)
		if err := c.mem.writeByte(addr, byte(v), t); err != nil {
			return err
		}
		c.noteWrite(trace.MemLoc(addr, 1), v&0xFF, nil)
		return nil
	}
}

// storeByteFast compiles an 8-bit operand write for the taint-free
// machine.
func storeByteFast(o dOperand) func(c *CPU, v uint32) error {
	if o.kind == isa.KindReg {
		r := o.reg
		return func(c *CPU, v uint32) error {
			c.reg[r] = (c.reg[r] &^ 0xFF) | (v & 0xFF)
			return nil
		}
	}
	return func(c *CPU, v uint32) error {
		return c.mem.writeByte(o.val+c.base(o), byte(v), taint.Set{})
	}
}
