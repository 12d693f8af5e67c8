// Command smtflow runs the improved Selective-MT flow end to end on a
// benchmark circuit or an external Verilog netlist, printing stage-by-stage
// reports and optionally writing the final netlist, SPEF and library.
//
// -technique all runs the three techniques concurrently on a prepared
// base (selectivemt.CompareBase, bounded by -jobs) and prints the
// paper's comparison alongside the per-technique reports.
//
// -technique is resolved like a job spec's techniques, in any case: the
// aliases dual, conventional, improved and all, the built-in names
// Dual-Vth, Conventional-SMT and Improved-SMT, or the name of any
// registered custom pipeline (selectivemt.RegisterPipeline).
//
// Usage:
//
//	smtflow -circuit a|b|small [-technique improved|conventional|dual|all|<pipeline>] [-jobs N]
//	smtflow -verilog design.v -sdc design.sdc
//	smtflow -circuit a -out-verilog out.v -out-spef vgnd.spef
//	smtflow -circuit large -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"selectivemt"
	"selectivemt/internal/core"
	"selectivemt/internal/def"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/prof"
	"selectivemt/internal/sdc"
	"selectivemt/internal/verilog"
)

func main() {
	circuit := flag.String("circuit", "small", "benchmark circuit: a, b, small or large")
	verilogIn := flag.String("verilog", "", "structural Verilog netlist to run instead of a benchmark")
	sdcIn := flag.String("sdc", "", "SDC constraints for -verilog input")
	technique := flag.String("technique", "improved", "improved, conventional, dual, all, or a registered pipeline name")
	jobs := flag.Int("jobs", 0, "max concurrent technique jobs (0 = GOMAXPROCS)")
	partitions := flag.Int("partitions", 0, "sensitivity-assignment lanes per design (<= 1 = one lane; timing and greedy results never depend on it, sensitivity commits one lane per cluster so its result follows the count)")
	shardJobs := flag.Int("shard-jobs", 0, "max concurrent sensitivity assignment lanes when -partitions > 1 (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "", "Vth-assignment strategy: greedy (paper default) or sensitivity (leakage-per-slack LUT ordering)")
	outVerilog := flag.String("out-verilog", "", "write the final netlist here")
	outSpef := flag.String("out-spef", "", "write the VGND parasitics here")
	outDef := flag.String("out-def", "", "write the final placement here (DEF)")
	inrush := flag.Float64("inrush", 0, "stagger cluster wake-up under this inrush limit (mA)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here (go tool pprof format)")
	memprofile := flag.String("memprofile", "", "write a heap profile here on exit")
	flag.Parse()
	log.SetFlags(0)

	if *jobs < 0 {
		log.Fatalf("smtflow: -jobs must be >= 0 (0 = all %d CPUs), got %d", runtime.GOMAXPROCS(0), *jobs)
	}
	if *partitions < 0 {
		log.Fatalf("smtflow: -partitions must be >= 0 (<= 1 = one shard), got %d", *partitions)
	}
	if *shardJobs < 0 {
		log.Fatalf("smtflow: -shard-jobs must be >= 0 (0 = all %d CPUs), got %d", runtime.GOMAXPROCS(0), *shardJobs)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	env, err := selectivemt.NewEnvironment()
	if err != nil {
		log.Fatal(err)
	}
	cfg := env.NewConfig()
	cfg.Partitions = *partitions
	cfg.ShardJobs = *shardJobs
	if cfg.Strategy, err = selectivemt.ParseStrategy(*strategy); err != nil {
		log.Fatalf("smtflow: %v", err)
	}
	// The technique resolver job specs use: aliases and registered
	// pipeline names in any case, "all" for the three built-ins.
	techniques, err := selectivemt.ParseTechniques([]string{*technique})
	if err != nil {
		log.Fatalf("smtflow: %v", err)
	}

	var base *netlist.Design
	if *verilogIn != "" {
		f, err := os.Open(*verilogIn)
		if err != nil {
			log.Fatal(err)
		}
		base, err = verilog.Parse(f, env.Lib)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if *sdcIn != "" {
			sf, err := os.Open(*sdcIn)
			if err != nil {
				log.Fatal(err)
			}
			cons, err := sdc.Parse(sf)
			sf.Close()
			if err != nil {
				log.Fatal(err)
			}
			cfg.ClockPort = cons.ClockPort
			cfg.ClockPeriodNs = cons.ClockPeriodNs
		}
		if _, err := place.Place(base, cfg.PlaceOpts); err != nil {
			log.Fatal(err)
		}
		if cfg.ClockPeriodNs <= 0 {
			log.Fatal("smtflow: -verilog input needs -sdc with create_clock")
		}
	} else {
		spec, err := selectivemt.BenchmarkCircuit(*circuit)
		if err != nil {
			log.Fatal(err)
		}
		cfg.ClockSlack = spec.ClockSlack
		base, err = env.Synthesize(spec, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	// -technique all runs the three techniques concurrently (bounded by
	// -jobs); any other name runs one technique pipeline.
	var res *selectivemt.TechniqueResult
	if len(techniques) > 1 {
		cmp, err := env.CompareBase(base, cfg, *jobs)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range []*selectivemt.TechniqueResult{cmp.Dual, cmp.Conv, cmp.Improved} {
			printResult(base, r)
		}
		fmt.Println(cmp.Format())
		res = cmp.Improved
		if *outVerilog != "" || *outDef != "" || *outSpef != "" || *inrush > 0 {
			fmt.Printf("(output files and -inrush use the %s result)\n", res.Technique)
		}
	} else {
		if res, err = selectivemt.RunPipeline(context.Background(), techniques[0], base, cfg, nil); err != nil {
			log.Fatal(err)
		}
		printResult(base, res)
	}

	if *inrush > 0 && len(res.Clusters) > 0 {
		sched, err := core.ScheduleWakeup(res.Clusters, env.Proc, *inrush)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wake-up schedule @ %.2f mA limit: %d stages (peak %.2f mA, simultaneous would be %.2f mA), total %.3f ns\n",
			*inrush, len(sched.Groups), sched.PeakInrushMA, sched.SimultaneousInrushMA, sched.TotalWakeupNs)
	}

	if *outVerilog != "" {
		f, err := os.Create(*outVerilog)
		if err != nil {
			log.Fatal(err)
		}
		if err := selectivemt.WriteVerilog(f, res.Design); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *outVerilog)
	}
	if *outDef != "" {
		f, err := os.Create(*outDef)
		if err != nil {
			log.Fatal(err)
		}
		if err := def.Write(f, res.Design); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *outDef)
	}
	if *outSpef != "" {
		trees := core.ExtractVGND(res.Design, cfg)
		f, err := os.Create(*outSpef)
		if err != nil {
			log.Fatal(err)
		}
		if err := parasitics.WriteSPEF(f, res.Design.Name, trees); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s (%d VGND nets)\n", *outSpef, len(trees))
	}
}

func printResult(base *netlist.Design, res *selectivemt.TechniqueResult) {
	fmt.Printf("%s on %s @ %.3f ns\n", res.Technique, base.Name, res.ClockPeriodNs)
	fmt.Printf("  area    %.1f µm²\n", res.AreaUm2)
	fmt.Printf("  standby %.6f mW   dynamic %.3f mW\n", res.StandbyLeakMW, res.DynamicMW)
	fmt.Printf("  WNS     %.4f ns   worst hold %.4f ns\n", res.WNSNs, res.WorstHoldNs)
	c := res.Counts
	fmt.Printf("  cells: MT=%d HVT=%d LVT=%d FF=%d switches=%d holders=%d mtebuf=%d ckbuf=%d holdbuf=%d\n",
		c.MT, c.HVT, c.LVT, c.Flops, c.Switches, c.Holders, c.MTEBuffers, c.ClockBuffers, c.HoldBuffers)
	if len(res.Clusters) > 0 {
		total := 0
		for _, cl := range res.Clusters {
			total += len(cl.Cells)
		}
		fmt.Printf("  clusters: %d (avg %.1f cells/switch)  naive single-switch bounce: %.3f V  reopt resized: %d  wakeup: %.3f ns  holders inserted: %d\n",
			len(res.Clusters), float64(total)/float64(len(res.Clusters)),
			res.InitialSingleSwitchBounceV, res.ReoptResized, res.WakeupNs, res.HoldersInserted)
	}
	fmt.Println("  stages:")
	for _, s := range res.Stages {
		fmt.Printf("    %-40s area=%10.1f leak=%10.6f wns=%8.4f time=%7.1fms",
			s.Name, s.AreaUm2, s.LeakMW, s.WNSNs, s.ElapsedMS)
		if s.Inserted > 0 {
			fmt.Printf(" inserted=%d", s.Inserted)
		}
		fmt.Println()
	}
	for _, a := range res.AssignReports {
		const ms = 1e6
		fmt.Printf("    %-40s jobs=%d passes=%d commits=%d reverts=%d score=%.1fms commit=%.1fms retime=%.1fms unwind=%.1fms\n",
			a.Stage+" [assign]", a.Workers, a.Passes, a.Commits, a.Reverts,
			float64(a.Phases.ScoreNs)/ms, float64(a.Phases.CommitNs)/ms,
			float64(a.Phases.RetimeNs)/ms, float64(a.Phases.UnwindNs)/ms)
	}
}
