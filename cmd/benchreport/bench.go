package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/experiment"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

// benchSeed matches the repository's bench_test.go so the in-process
// measurements are comparable with `go test -bench` output.
const benchSeed = 42

// benchRow is one measurement in BENCH_emu.json.
type benchRow struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
	// BlocksOverStepwise is the tier-2 row's stepwise-over-blocks ns/op
	// ratio, both measured in the same run.
	BlocksOverStepwise float64 `json:"blocks_over_stepwise,omitempty"`
}

// benchReport is the machine-readable BENCH_emu.json document. Every
// number in it comes from one run on one machine: ns/op recorded on
// other hardware is not comparable, so no row carries a baseline.
type benchReport struct {
	GOOS    string     `json:"goos"`
	GOARCH  string     `json:"goarch"`
	Go      string     `json:"go"`
	Seed    int64      `json:"seed"`
	Results []benchRow `json:"results"`
}

// runBench executes the emulator benchmark trajectory in-process and
// writes the machine-readable report to outPath.
func runBench(outPath string) error {
	zeus, err := malware.NewGenerator(benchSeed).FamilySample(malware.Zeus)
	if err != nil {
		return err
	}

	rep := &benchReport{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Go:     runtime.Version(),
		Seed:   benchSeed,
	}

	measure := func(name string, steps *int, fn func(b *testing.B)) benchRow {
		*steps = 0
		r := testing.Benchmark(fn)
		row := benchRow{
			Name:        name,
			N:           r.N,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if *steps > 0 && r.T > 0 {
			row.StepsPerSec = float64(*steps) / r.T.Seconds()
		}
		rep.Results = append(rep.Results, row)
		return row
	}

	var steps int

	// One-shot execution, fresh environment clone per run — the exact
	// shape of BenchmarkEmulator in bench_test.go.
	env := winenv.New(winenv.DefaultIdentity())
	measure("Emulator", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := emu.Run(zeus.Program, env.Clone(), emu.Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			if tr.Exit == trace.ExitFault {
				b.Fatal(tr.Fault)
			}
			steps += tr.StepCount
		}
	})

	// Instruction-level recording, the cost backward slicing pays.
	measure("EmulatorWithSteps", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := emu.Run(zeus.Program, env.Clone(),
				emu.Options{Seed: benchSeed, RecordSteps: true})
			if err != nil {
				b.Fatal(err)
			}
			steps += tr.StepCount
		}
	})

	// Pooled arena re-execution — Phase-II's steady state.
	runner, err := emu.NewRunner(zeus.Program, winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		return err
	}
	measure("EmulatorPooled", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := runner.Run(emu.Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			steps += tr.StepCount
		}
	})
	runner.Close()

	// Tier-2 block-compiled dispatch vs forced tier-1 stepping on the
	// stalling-evasion workload (tight untainted loop + timing check),
	// where instruction dispatch dominates. Same binary, same runner
	// shape; only Options.DisableBlocks differs, and execution is
	// byte-identical either way. The blocks row records the ratio.
	stallSpec := &malware.Spec{Name: "bench-stalling", Category: malware.Trojan,
		Behaviors: []malware.Behavior{
			{Kind: malware.BehStalling, Count: 20_000},
			{Kind: malware.BehMarkerMutex, ID: "BENCH-STALL-MUTEX"},
		}}
	stallProg := malware.MustEmit(stallSpec)
	stallTier := func(name string, disable bool) (benchRow, error) {
		r, err := emu.NewRunner(stallProg, winenv.New(winenv.DefaultIdentity()))
		if err != nil {
			return benchRow{}, err
		}
		defer r.Close()
		return measure(name, &steps, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := r.Run(emu.Options{Seed: benchSeed, DisableBlocks: disable})
				if err != nil {
					b.Fatal(err)
				}
				if tr.Exit == trace.ExitFault {
					b.Fatal(tr.Fault)
				}
				steps += tr.StepCount
			}
		}), nil
	}
	blocksRow, err := stallTier("EmulatorStalling/blocks", false)
	if err != nil {
		return err
	}
	stepRow, err := stallTier("EmulatorStalling/stepwise", true)
	if err != nil {
		return err
	}
	if stepRow.NsPerOp > 0 && blocksRow.NsPerOp > 0 {
		rep.Results[len(rep.Results)-2].BlocksOverStepwise = stepRow.NsPerOp / blocksRow.NsPerOp
	}

	// Slice replay per algorithm-deterministic vaccine.
	spec := &malware.Spec{Name: "bench-replay", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}}
	prog := malware.MustEmit(spec)
	tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: benchSeed, RecordSteps: true})
	if err != nil {
		return err
	}
	sl, err := determinism.Extract(prog, tr, tr.CallsTo("CreateMutexA")[0].Seq)
	if err != nil {
		return err
	}
	replayEnv := winenv.New(winenv.DefaultIdentity())
	measure("SliceReplay", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sl.Replay(replayEnv, benchSeed); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Phase-I candidate selection over the 60-sample bench corpus —
	// end-to-end profiling throughput, the number every corpus sweep
	// multiplies. Setup construction is outside the timed region.
	setup, err := experiment.NewSetup(benchSeed, 60)
	if err != nil {
		return err
	}
	measure("Phase1CandidateSelection", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := setup.RunPhase1(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Human-readable table alongside the JSON.
	fmt.Printf("emulator bench trajectory (seed %d, %s/%s, %s)\n",
		benchSeed, rep.GOOS, rep.GOARCH, rep.Go)
	fmt.Printf("%-26s %14s %12s %14s %12s\n", "benchmark", "ns/op", "allocs/op", "steps/sec", "vs stepwise")
	for _, r := range rep.Results {
		speed, sps := "-", "-"
		if r.BlocksOverStepwise > 0 {
			speed = fmt.Sprintf("%.2fx", r.BlocksOverStepwise)
		}
		if r.StepsPerSec > 0 {
			sps = fmt.Sprintf("%.2fM", r.StepsPerSec/1e6)
		}
		fmt.Printf("%-26s %14.0f %12d %14s %12s\n", r.Name, r.NsPerOp, r.AllocsPerOp, sps, speed)
	}
	fmt.Println()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
