// Command mhpbench regenerates the paper's evaluation: the worked
// examples of Sections 2.1/2.2, the constraint system of Figure 5,
// and the benchmark tables of Figures 6–9, each printed as a
// measured/paper table, plus a corpus sweep that runs the whole
// evaluation through the analysis engine's worker pool and reports
// the wall-clock speedup over sequential analysis.
//
// Usage:
//
//	mhpbench [-figure NAME,...] [-parallel N] [-strategy NAME] [-benchjson FILE] [-n N]
//
// -figure takes a comma-separated subset of the known figures; the
// one authoritative list is the figures slice below, which also
// generates the flag's help text and the unknown-figure error, so
// this comment does not enumerate it. Highlights: the solver figure
// races the solving strategies on the 13-benchmark corpus and the
// huge tier;
// the incremental figure sweeps single-method edits and compares
// incremental re-analysis (engine.AnalyzeDelta) against solving from
// scratch; the clocked figure compares clock-blind and clock-aware
// pair counts over a generated clocked corpus (-n programs); the
// gofront figure sweeps the committed Go corpus (-gocorpus) through
// the real-Go front end and reports lowering coverage and pair
// counts, failing if any runtime-observed pair escapes the static
// relation. -benchjson additionally writes the selected sweep
// machine-readably (the committed BENCH_solver.json /
// BENCH_incremental.json / BENCH_clocked.json / BENCH_gofront.json),
// each headed by the host it ran on.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"fx10/internal/engine"
	"fx10/internal/experiments"
	"fx10/internal/parser"
)

// figures is the single authoritative list of selectable figures:
// the -figure help text, the unknown-figure error and the "all"
// default are all derived from it, so they cannot drift apart.
var figures = []string{
	"examples", "5", "6", "7", "8", "9",
	"precision", "scaling", "corpus",
	"solver", "incremental", "clocked", "gofront",
}

// allFigures is what -figure all selects: the paper regeneration
// (examples and numbered figures) plus the corpus sweep. The studies
// and benches run only when asked for by name.
var allFigures = []string{"examples", "5", "6", "7", "8", "9", "corpus"}

func figureList() string { return "all, " + strings.Join(figures, ", ") }

func main() {
	figure := flag.String("figure", "all", "which figure(s) to regenerate, comma-separated: "+figureList())
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool width for the corpus sweep")
	strategy := flag.String("strategy", "", "solver strategy for the incremental figure (default: "+engine.DefaultStrategy+")")
	benchjson := flag.String("benchjson", "", "with -figure solver, incremental, clocked or gofront: also write the sweep as JSON to this file")
	n := flag.Int("n", 40, "generated programs for the clocked figure")
	gocorpus := flag.String("gocorpus", "testdata/goprograms", "Go corpus directory for the gofront figure")
	flag.Parse()
	if err := run(*figure, *parallel, *strategy, *benchjson, *n, *gocorpus); err != nil {
		fmt.Fprintln(os.Stderr, "mhpbench:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode mirrors cmd/fx10: 2 for parse failures, 3 for analysis
// failures, 1 otherwise — so CI can tell a broken corpus program from
// a broken analysis.
func exitCode(err error) int {
	var pe *parser.Error
	var ae *engine.AnalysisError
	var ue *engine.UnknownStrategyError
	switch {
	case errors.As(err, &pe), errors.As(err, &ue):
		return 2
	case errors.As(err, &ae):
		return 3
	}
	return 1
}

func run(figure string, parallel int, strategy, benchjson string, clockedN int, gocorpus string) error {
	// Fail early on a bad strategy name; the error lists the
	// registered names.
	if _, err := engine.Lookup(strategy); err != nil {
		return err
	}

	known := map[string]bool{}
	for _, f := range figures {
		known[f] = true
	}
	want := map[string]bool{}
	for _, f := range strings.Split(figure, ",") {
		f = strings.TrimSpace(f)
		if f == "all" {
			for _, a := range allFigures {
				want[a] = true
			}
			continue
		}
		if f == "" {
			continue
		}
		if !known[f] {
			return fmt.Errorf("unknown figure %q; known figures: %s", f, figureList())
		}
		want[f] = true
	}

	section := func(title string) { fmt.Printf("\n== %s ==\n\n", title) }

	if want["examples"] {
		section("Worked examples (Sections 2.1 and 2.2)")
		for _, run := range []func() (experiments.ExampleResult, error){experiments.Example21, experiments.Example22} {
			ex, err := run()
			if err != nil {
				return err
			}
			status := "MATCHES PAPER"
			if !ex.Match {
				status = "MISMATCH"
			}
			fmt.Printf("%s: %s\n  inferred: %s\n  paper:    %s\n",
				ex.Name, status, strings.Join(ex.Pairs, " "), strings.Join(ex.Expected, " "))
		}
	}
	if want["5"] {
		section("Figure 5: constraints for the Section 2.1 example")
		fmt.Print(experiments.Figure5())
	}
	if want["6"] {
		section("Figure 6: static measurements (measured/paper)")
		fmt.Print(experiments.FormatFigure6(experiments.Figure6()))
	}
	if want["7"] {
		section("Figure 7: condensed node counts (measured/paper)")
		fmt.Print(experiments.FormatFigure7(experiments.Figure7()))
	}
	if want["8"] {
		section("Figure 8: type inference (context-sensitive)")
		rows, err := experiments.Figure8()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFigure8(rows))
	}
	if want["9"] {
		section("Figure 9: context-sensitive vs context-insensitive (mg, plasma)")
		rows, err := experiments.Figure9()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFigure9(rows))
	}
	if want["corpus"] {
		section("Corpus engine: 13 benchmarks, parallel vs sequential")
		run, err := experiments.Corpus(parallel)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatCorpus(run))
	}
	if want["precision"] {
		section("Precision study: exact (explorer) vs static M per benchmark (Theorem 2)")
		rows, err := experiments.TheoremPrecision(experiments.DefaultPrecisionBudget)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatPrecision(rows))
	}
	if want["scaling"] {
		section("Scaling study: solver time vs program size (Section 5.2 complexity)")
		rows, err := experiments.Scaling(experiments.DefaultScalingSizes)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatScaling(rows))
	}
	if want["solver"] {
		section("Solver strategies: 13 benchmarks + huge tier × 2 strategies")
		bench, err := experiments.RunSolverBench(21)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSolverBench(bench))
		if benchjson != "" {
			if err := experiments.WriteJSON(benchjson, bench); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", benchjson)
		}
	}
	if want["incremental"] {
		section("Incremental analysis: edit-one-method sweep, delta vs scratch")
		bench, err := experiments.RunIncremental(3, strategy)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatIncremental(bench))
		if benchjson != "" {
			if err := experiments.WriteJSON(benchjson, bench); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", benchjson)
		}
	}
	if want["clocked"] {
		section("Clocked analysis: clock-blind vs clock-aware pair counts")
		bench, err := experiments.RunClockedBench(clockedN, 3)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatClockedBench(bench))
		if benchjson != "" {
			if err := experiments.WriteJSON(benchjson, bench); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", benchjson)
		}
	}
	if want["gofront"] {
		section("Go front end: corpus coverage and pair counts (observed ⊆ static)")
		bench, err := experiments.RunGofrontBench(gocorpus, 4)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatGofrontBench(bench))
		if benchjson != "" {
			if err := experiments.WriteJSON(benchjson, bench); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", benchjson)
		}
	}
	if len(want) == 0 {
		return fmt.Errorf("nothing selected; use -figure with %s", figureList())
	}
	return nil
}
