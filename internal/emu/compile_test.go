package emu

import (
	"testing"

	"autovac/internal/isa"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

// The tier-2 contract: block-compiled dispatch is byte-identical to
// step-wise execution. Every test here runs the same program through
// both tiers (Options.DisableBlocks) and compares the serialized
// traces, so any divergence — step counts, call logs, taint sources,
// predicates, exit state — fails loudly.

// runBothTiers executes prog under opts with and without block
// compilation, each on a fresh environment, and returns both traces.
func runBothTiers(t *testing.T, prog *isa.Program, opts Options) (blocks, stepwise *trace.Trace) {
	t.Helper()
	blocksOpts := opts
	blocksOpts.DisableBlocks = false
	stepOpts := opts
	stepOpts.DisableBlocks = true
	var err error
	if blocks, err = Run(prog, winenv.New(winenv.DefaultIdentity()), blocksOpts); err != nil {
		t.Fatal(err)
	}
	if stepwise, err = Run(prog, winenv.New(winenv.DefaultIdentity()), stepOpts); err != nil {
		t.Fatal(err)
	}
	return blocks, stepwise
}

// assertTierParity fails unless both tiers produced identical traces.
func assertTierParity(t *testing.T, prog *isa.Program, opts Options) {
	t.Helper()
	blocks, stepwise := runBothTiers(t, prog, opts)
	if bj, sj := traceJSON(t, blocks), traceJSON(t, stepwise); bj != sj {
		t.Errorf("tier divergence:\nblocks:   %s\nstepwise: %s", bj, sj)
	}
}

// stallingLoop builds the evasion-survey shape: an untainted busy loop,
// then a timing check whose predicate carries clock taint.
func stallingLoop(iters int) *isa.Program {
	b := isa.NewBuilder("stalling")
	b.Mov(isa.R(isa.ECX), isa.Imm(uint32(iters)))
	b.Mov(isa.R(isa.EBX), isa.Imm(0x9E3779B9))
	b.Label("stall")
	b.Mov(isa.R(isa.EDX), isa.R(isa.EBX))
	b.Shl(isa.R(isa.EDX), isa.Imm(5))
	b.Xor(isa.R(isa.EBX), isa.R(isa.EDX))
	b.Add(isa.R(isa.EBX), isa.R(isa.ECX))
	b.Dec(isa.R(isa.ECX))
	b.Jnz("stall")
	b.CallAPI("GetTickCount")
	b.Mov(isa.R(isa.EDI), isa.R(isa.EAX))
	b.CallAPI("GetTickCount")
	b.Sub(isa.R(isa.EAX), isa.R(isa.EDI))
	b.Cmp(isa.R(isa.EAX), isa.Imm(0))
	b.Jz("frozen")
	b.Halt()
	b.Label("frozen")
	b.CallAPI("ExitProcess", isa.Imm(9))
	return b.MustBuild()
}

// memoryMixer exercises every compilable operand shape: word and byte
// memory traffic with and without base registers, LEA, push/pop, and a
// local call — taint flowing through all of it once the API fires.
func memoryMixer() *isa.Program {
	b := isa.NewBuilder("memory-mixer")
	b.Buf("buf", 64)
	b.RData("name", "MIX-MARKER")
	b.CallAPI("OpenMutexA", isa.Sym("name"))
	b.Mov(isa.MemSym("buf"), isa.R(isa.EAX)).Comment("tainted store")
	b.Lea(isa.EBX, isa.MemSym("buf"))
	b.Mov(isa.Mem(isa.EBX, 4), isa.Imm(0x01020304))
	b.Movb(isa.R(isa.EDX), isa.Mem(isa.EBX, 5))
	b.Movb(isa.Mem(isa.EBX, 8), isa.R(isa.EDX))
	b.Push(isa.MemSym("buf"))
	b.Pop(isa.R(isa.ESI))
	b.Call("mix")
	b.Test(isa.R(isa.ESI), isa.R(isa.ESI))
	b.Jnz("tainted")
	b.Halt()
	b.Label("tainted")
	b.CallAPI("ExitProcess", isa.Imm(3))
	b.Label("mix")
	b.Xor(isa.R(isa.ESI), isa.R(isa.ESI)).Comment("xor-clear idiom")
	b.Or(isa.R(isa.ESI), isa.MemSym("buf"))
	b.Ret()
	return b.MustBuild()
}

// parityPrograms is the tier-parity program set, keyed by name.
func parityPrograms() map[string]*isa.Program {
	return map[string]*isa.Program{
		"mutex-checker": mutexChecker("!BlockParity"),
		"hot-loop":      hotLoop(500),
		"stalling":      stallingLoop(300),
		"memory-mixer":  memoryMixer(),
		"algo-mutex":    algoMutex(),
		"dormant":       dormantSample(),
	}
}

func TestBlockParityPrograms(t *testing.T) {
	for name, prog := range parityPrograms() {
		t.Run(name, func(t *testing.T) {
			assertTierParity(t, prog, Options{Seed: 11})
		})
	}
}

func TestBlockParityWithMutations(t *testing.T) {
	// Mutated re-execution (Phase-II's shape) must agree across tiers:
	// the mutation fires at an API boundary, which always splits runs.
	assertTierParity(t, mutexChecker("!BlockMut"), Options{
		Seed: 11,
		Mutations: []Mutation{{
			API: "OpenMutexA", CallerPC: -1, Identifier: "!BlockMut", Mode: ForceSuccess,
		}},
	})
}

func TestBlockParityFaultMidBlock(t *testing.T) {
	// A bad memory access in the middle of a compiled run must report
	// the same fault at the same step count as stepping: the charge for
	// the not-executed tail of the run is rolled back.
	b := isa.NewBuilder("fault-mid-block")
	b.Mov(isa.R(isa.EAX), isa.Imm(1))
	b.Add(isa.R(isa.EAX), isa.Imm(2))
	b.Mov(isa.R(isa.EBX), isa.MemAbs(0xDEAD0000)).Comment("unmapped")
	b.Sub(isa.R(isa.EAX), isa.Imm(1))
	b.Halt()
	prog := b.MustBuild()
	blocks, stepwise := runBothTiers(t, prog, Options{Seed: 1})
	if blocks.Exit != trace.ExitFault || stepwise.Exit != trace.ExitFault {
		t.Fatalf("exits = %v / %v, want fault", blocks.Exit, stepwise.Exit)
	}
	if blocks.Fault != stepwise.Fault {
		t.Errorf("fault strings differ: %q vs %q", blocks.Fault, stepwise.Fault)
	}
	if blocks.StepCount != stepwise.StepCount {
		t.Errorf("step counts differ: %d vs %d (faulting instruction charged, tail rolled back)",
			blocks.StepCount, stepwise.StepCount)
	}
}

func TestBlockParityStepLimit(t *testing.T) {
	// ExitLimit must land on exactly the same instruction in both tiers,
	// including limits that would split a compiled run: a run that does
	// not fit the remaining budget falls back to stepping.
	prog := stallingLoop(1000)
	for _, max := range []int{1, 2, 7, 100, 101, 102, 103, 1999} {
		blocks, stepwise := runBothTiers(t, prog, Options{Seed: 1, MaxSteps: max})
		if blocks.Exit != trace.ExitLimit || stepwise.Exit != trace.ExitLimit {
			t.Fatalf("max %d: exits = %v / %v, want limit", max, blocks.Exit, stepwise.Exit)
		}
		if blocks.StepCount != stepwise.StepCount {
			t.Errorf("max %d: step counts differ: %d vs %d", max, blocks.StepCount, stepwise.StepCount)
		}
	}
}

func TestCompiledRunsSplitAtAPICalls(t *testing.T) {
	// Every CALLAPI stays step-wise (its side effects need the full
	// machine), so no compiled run may contain one; runs resume at the
	// instruction after the call.
	prog := mutexChecker("!SplitCheck")
	d, err := decodedFor(prog)
	if err != nil {
		t.Fatal(err)
	}
	if d.runs == nil {
		t.Fatal("no compiled runs for a compilable program")
	}
	for pc, r := range d.runs {
		if r == nil {
			continue
		}
		for i := range r.slow {
			if d.instrs[pc+i].op == isa.CALLAPI {
				t.Errorf("compiled run at pc %d contains CALLAPI at pc %d", pc, pc+i)
			}
		}
	}
	for pc := range d.instrs {
		if d.instrs[pc].op == isa.CALLAPI && pc+1 < len(d.instrs) {
			if d.runs[pc] != nil {
				t.Errorf("compiled run starts on CALLAPI at pc %d", pc)
			}
		}
	}
}

func TestLiveTaintRetiresFastPath(t *testing.T) {
	// The all-untainted fast path is only sound while no taint source
	// exists. The first source-allocating API call must flip the CPU to
	// the taint-aware variant — pinned here by checking that taint
	// recorded after an API call still reaches a predicate when the
	// preceding code ran block-compiled.
	prog := stallingLoop(50)
	tr, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasTaintedPredicate() {
		t.Error("clock taint lost across the compiled fast path")
	}
}
