package emu_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/malware"
	"autovac/internal/winenv"
)

// forcedRecordingHash pins RecordSteps together with InvertBranches:
// every conditional jump of the tier-parity programs and of a 16-sample
// corpus is inverted in turn, and the recorded traces (Steps included)
// hash to a constant captured before stepping moved onto the compiled
// closures.
const forcedRecordingHash = "f9934097571eb07e9ab6b440b36e5ac005ced5535eabb6befc22ccd05c524c91"

func TestForcedRecordingPin(t *testing.T) {
	type named struct {
		name string
		prog *isa.Program
	}
	var progs []named
	for name, p := range emu.ParityPrograms() {
		progs = append(progs, named{name, p})
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].name < progs[j].name })
	samples, err := malware.NewGenerator(11).Corpus(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		progs = append(progs, named{s.Name(), s.Program})
	}
	h := sha256.New()
	runs := 0
	for _, np := range progs {
		for pc, in := range np.prog.Instrs {
			if !in.Op.IsJump() || in.Op == isa.JMP {
				continue
			}
			tr, err := emu.Run(np.prog, winenv.New(winenv.DefaultIdentity()), emu.Options{
				Seed: 11, RecordSteps: true, InvertBranches: []int{pc}, MaxSteps: 20_000,
			})
			if err != nil {
				t.Fatalf("%s pc %d: %v", np.name, pc, err)
			}
			fmt.Fprintf(h, "%s@%d\n", np.name, pc)
			if err := json.NewEncoder(h).Encode(tr); err != nil {
				t.Fatal(err)
			}
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("no conditional jumps found")
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != forcedRecordingHash {
		t.Errorf("forced recorded traces diverged over %d runs:\n got %s\nwant %s", runs, got, forcedRecordingHash)
	}
}
