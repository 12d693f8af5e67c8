// Command table1 regenerates Table 1 of Kitahara et al. (DATE 2005):
// area and standby leakage of the Dual-Vth, conventional Selective-MT and
// improved Selective-MT techniques on circuits A and B, normalized to the
// Dual-Vth baseline.
//
// Each circuit is one selectivemt.JobSpec run by RunBatch: every circuit
// is prepared first, then all their techniques run concurrently on one
// fan-out; -jobs bounds both (1 forces a sequential run). The flags map
// one to one onto JobSpec fields.
//
// With -corners, every technique's finished design is additionally
// signed off across the listed PVT corners — per-corner setup/hold slack
// and standby leakage, hold re-fixed at the binding fast corner on a
// sign-off clone — and one sign-off table per technique follows Table 1.
// The Table-1 numbers themselves are measured at the typical corner and
// are identical with or without -corners.
//
// Usage:
//
//	table1 [-circuit a|b|both] [-jobs N] [-detail] [-corners all|typ,slow,fast-hot,fast-cold]
//	table1 -circuit large -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"selectivemt"
	"selectivemt/internal/power"
	"selectivemt/internal/prof"
)

func main() {
	circuit := flag.String("circuit", "both", "which circuit to run: a, b, small, large or both")
	detail := flag.Bool("detail", false, "print per-technique detail (counts, clusters, stages)")
	jobs := flag.Int("jobs", 0, "max concurrent flow jobs (0 = GOMAXPROCS, 1 = sequential)")
	partitions := flag.Int("partitions", 0, "timing shards per analysis (<= 1 = one shard; timing and greedy results are bit-identical, sensitivity commits one lane per shard so its result follows the count)")
	shardJobs := flag.Int("shard-jobs", 0, "max concurrent timing shards and sensitivity assignment lanes when -partitions > 1 (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "", "Vth-assignment strategy: greedy (paper default) or sensitivity (leakage-per-slack LUT ordering)")
	cornersFlag := flag.String("corners", "", "PVT sign-off corners: all, or comma-separated typ,slow,fast-hot,fast-cold")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here (go tool pprof format)")
	memprofile := flag.String("memprofile", "", "write a heap profile here on exit")
	flag.Parse()
	log.SetFlags(0)

	if *jobs < 0 {
		log.Fatalf("table1: -jobs must be >= 0 (0 = all %d CPUs), got %d", runtime.GOMAXPROCS(0), *jobs)
	}
	if *partitions < 0 {
		log.Fatalf("table1: -partitions must be >= 0 (<= 1 = one shard), got %d", *partitions)
	}
	if *shardJobs < 0 {
		log.Fatalf("table1: -shard-jobs must be >= 0 (0 = all %d CPUs), got %d", runtime.GOMAXPROCS(0), *shardJobs)
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
	circuits := []string{*circuit}
	if *circuit == "both" {
		circuits = []string{"a", "b"}
	}
	// One job spec per circuit: RunBatch prepares every circuit, then
	// fans all their techniques out on the worker pool, sharing the
	// environment's analysis cache.
	specs := make([]selectivemt.JobSpec, len(circuits))
	for i, c := range circuits {
		specs[i] = selectivemt.JobSpec{
			Circuit:    c,
			Corners:    strings.Split(*cornersFlag, ","),
			Partitions: *partitions,
			ShardJobs:  *shardJobs,
			Strategy:   *strategy,
		}
	}
	outs, err := env.RunBatch(specs, selectivemt.JobOptions{
		Workers: *jobs,
		Progress: func(ev selectivemt.BatchEvent) {
			if ev.Stage != "" {
				// Pipeline-stage events are too fine-grained for the
				// stderr ticker; per-stage timing shows under -detail.
				return
			}
			switch ev.State {
			case selectivemt.JobRunning:
				fmt.Fprintf(os.Stderr, "running %s/%s...\n", ev.Circuit, ev.Task)
			case selectivemt.JobDone:
				fmt.Fprintf(os.Stderr, "done    %s/%s (%v)\n", ev.Circuit, ev.Task, ev.Elapsed.Round(time.Millisecond))
			case selectivemt.JobFailed, selectivemt.JobSkipped:
				fmt.Fprintf(os.Stderr, "%-7s %s/%s: %v\n", ev.State, ev.Circuit, ev.Task, ev.Err)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	comps := make([]*selectivemt.Comparison, len(outs))
	for i, out := range outs {
		comps[i] = out.Comparison
	}
	fmt.Println(selectivemt.FormatTable1(comps))
	fmt.Println("Paper reference:  A: 164.84/133.18 area, 14.58/9.42 leakage;" +
		"  B: 142.22/115.65 area, 19.42/12.21 leakage (% of Dual-Vth)")
	if reps := selectivemt.FormatCornerReports(comps); reps != "" {
		fmt.Println()
		fmt.Print(reps)
	}

	if *detail {
		for _, cmp := range comps {
			for _, r := range []*selectivemt.TechniqueResult{cmp.Dual, cmp.Conv, cmp.Improved} {
				fmt.Printf("\n%s / %s: period=%.3fns WNS=%.3fns hold=%.3fns area=%.0fµm² leak=%.6fmW dyn=%.3fmW\n",
					cmp.Circuit, r.Technique, r.ClockPeriodNs, r.WNSNs, r.WorstHoldNs,
					r.AreaUm2, r.StandbyLeakMW, r.DynamicMW)
				c := r.Counts
				fmt.Printf("  cells: MT=%d HVT=%d LVT=%d FF=%d switches=%d holders=%d mtebuf=%d ckbuf=%d holdbuf=%d\n",
					c.MT, c.HVT, c.LVT, c.Flops, c.Switches, c.Holders, c.MTEBuffers, c.ClockBuffers, c.HoldBuffers)
				fmt.Printf("  leakage breakdown:")
				for _, cat := range []string{"lvt-comb", "hvt-comb", "mt-gated", "flop", "switch", "holder", "clock"} {
					fmt.Printf(" %s=%.2e", cat, r.Breakdown[power.Category(cat)])
				}
				fmt.Println()
				if len(r.Clusters) > 0 {
					total := 0
					for _, cl := range r.Clusters {
						total += len(cl.Cells)
					}
					fmt.Printf("  clusters: %d (avg %.1f cells/switch), single-switch bounce %.4fV, reopt resized %d, wakeup %.3fns, holders inserted %d\n",
						len(r.Clusters), float64(total)/float64(len(r.Clusters)),
						r.InitialSingleSwitchBounceV, r.ReoptResized, r.WakeupNs, r.HoldersInserted)
				}
				for _, s := range r.Stages {
					fmt.Printf("  stage %-36s area=%9.0f leak=%9.6f wns=%7.3f time=%7.1fms",
						s.Name, s.AreaUm2, s.LeakMW, s.WNSNs, s.ElapsedMS)
					if s.Inserted > 0 {
						fmt.Printf(" inserted=%d", s.Inserted)
					}
					fmt.Println()
				}
			}
		}
		hits, misses, entries := env.CacheStats()
		fmt.Printf("\nanalysis cache: %d hits / %d misses (%d entries)\n", hits, misses, entries)
	}
}
