package emu

import (
	"fmt"

	"autovac/internal/isa"
	"autovac/internal/taint"
	"autovac/internal/trace"
)

// Execute runs the program to completion and returns the trace. Runtime
// faults (bad memory, unknown APIs, stack underflow) terminate the run
// with ExitFault recorded in the trace rather than returning an error:
// a crashing malware sample is an observation, not an analysis failure.
func (c *CPU) Execute() *trace.Trace {
	// Tier-2 block dispatch applies only when nothing needs per-step
	// fidelity: step recording and forced execution stay fully
	// step-wise (and API calls split compiled runs at predecode).
	runs := c.runs
	if c.opts.RecordSteps || len(c.opts.InvertBranches) > 0 || c.opts.DisableBlocks {
		runs = nil
	}
	for !c.done {
		if c.tr.StepCount >= c.opts.MaxSteps {
			c.exitKind = trace.ExitLimit
			break
		}
		if c.pc < 0 || c.pc >= len(c.ops) {
			if c.pc == len(c.ops) {
				// Falling off the end is a normal stop.
				c.exitKind = trace.ExitHalt
			} else {
				c.faultf("pc %d out of range", c.pc)
			}
			break
		}
		if runs != nil {
			if r := runs[c.pc]; r != nil && c.tr.StepCount+len(r.slow) <= c.opts.MaxSteps {
				// The whole run fits the step budget; a run that would
				// straddle the limit is stepped instead so ExitLimit
				// lands on exactly the same instruction either way.
				if err := c.runCompiled(r); err != nil {
					c.faultf("%v", err)
					break
				}
				continue
			}
		}
		if err := c.step(); err != nil {
			c.faultf("%v", err)
			break
		}
	}
	c.tr.Exit = c.exitKind
	c.tr.ExitCode = c.exitCode
	c.tr.Fault = c.fault
	c.tr.Sources = c.table.All()
	return c.tr
}

// faultf ends execution with a fault.
func (c *CPU) faultf(format string, args ...interface{}) {
	c.done = true
	c.exitKind = trace.ExitFault
	c.fault = fmt.Sprintf(format, args...)
}

// step executes one instruction through its compiled closure. With
// RecordSteps on, the closure notes its accesses into the per-step
// buffers and step appends the trace.Step: an API call shows as an
// advance of the call sequence, a taken jump as c.taken.
func (c *CPU) step() error {
	pc := c.pc
	c.tr.StepCount++
	c.pc = pc + 1
	if !c.opts.RecordSteps {
		return c.ops[pc](c)
	}
	c.curReads = c.curReads[:0]
	c.curWrites = c.curWrites[:0]
	c.taken = false
	seq := c.apiSeq
	if err := c.ops[pc](c); err != nil {
		return err
	}
	apiSeq := -1
	if c.apiSeq != seq {
		apiSeq = seq
	}
	c.tr.Steps = append(c.tr.Steps, trace.Step{
		Index:  len(c.tr.Steps),
		PC:     pc,
		Instr:  c.prog.Instrs[pc],
		Reads:  c.claimAccesses(c.curReads),
		Writes: c.claimAccesses(c.curWrites),
		APISeq: apiSeq,
		Taken:  c.taken,
	})
	return nil
}

// accessChunkSize is the arena granularity for step access records.
const accessChunkSize = 4096

// claimAccesses copies the staged per-step accesses into the CPU's
// access arena and returns a capacity-capped subslice. The seed code
// allocated two fresh slices per recorded step; the arena amortises
// that to one allocation per accessChunkSize records. Chunks are never
// pooled — the returned subslices escape into the retained trace.
func (c *CPU) claimAccesses(src []trace.Access) []trace.Access {
	if len(src) == 0 {
		return nil
	}
	if len(c.accessArena)+len(src) > cap(c.accessArena) {
		n := accessChunkSize
		if len(src) > n {
			n = len(src)
		}
		c.accessArena = make([]trace.Access, 0, n)
	}
	start := len(c.accessArena)
	c.accessArena = append(c.accessArena, src...)
	return c.accessArena[start:len(c.accessArena):len(c.accessArena)]
}

// invertBranch reports whether forced execution inverts the branch at
// this PC.
func (c *CPU) invertBranch(pc int) bool {
	for _, p := range c.opts.InvertBranches {
		if p == pc {
			return true
		}
	}
	return false
}

// setFlags updates ZF/SF from a result value with the given taint.
func (c *CPU) setFlags(v uint32, t taint.Set) {
	c.zf = v == 0
	c.sf = int32(v) < 0
	c.flagsTaint = t
	c.noteWrite(trace.FlagsLoc(), flagBits(c.zf, c.sf), nil)
}

// flagBits packs flags into a value for trace records.
func flagBits(zf, sf bool) uint32 {
	var v uint32
	if zf {
		v |= 1
	}
	if sf {
		v |= 2
	}
	return v
}

// push writes a word below ESP.
func (c *CPU) push(v uint32, t taint.Set) error {
	c.reg[isa.ESP] -= 4
	if err := c.mem.writeWord(c.reg[isa.ESP], v, t); err != nil {
		return err
	}
	c.noteWrite(trace.MemLoc(c.reg[isa.ESP], 4), v, nil)
	return nil
}

// pop reads the word at ESP and releases it.
func (c *CPU) pop() (uint32, taint.Set, error) {
	v, t, err := c.mem.readWord(c.reg[isa.ESP])
	if err != nil {
		return 0, taint.Set{}, err
	}
	c.noteRead(trace.MemLoc(c.reg[isa.ESP], 4), v, nil)
	c.reg[isa.ESP] += 4
	return v, t, nil
}
