// Command fx10 is the Featherweight X10 toolchain driver: it runs,
// analyzes and explores FX10 programs.
//
// Usage:
//
//	fx10 run        [-lang L] [-sched S] [-seed N] [-steps N] [-a CSV] [-trace] FILE
//	fx10 exec       [-lang L] [-procs N] [-a CSV] FILE
//	fx10 mhp        [-lang L] [-mode M] [-strategy NAME] [-pairs] [-races] [-places] [-json] FILE
//	fx10 clocked    [-lang L] [-seed N] [-steps N] [-a CSV] FILE
//	fx10 constraints [-lang L] [-mode M] FILE
//	fx10 explore    [-lang L] [-max N] [-a CSV] FILE
//	fx10 fuzz       [-seeds CSV] [-n N] [-budget N] [-parallel N] [-minimize] [-incremental] [-clocked] [-frontends]
//	fx10 print      [-lang L] FILE
//	fx10 check      [-lang L] FILE
//
// run steps the formal small-step semantics (internal/machine); exec
// executes with real goroutines (internal/runtime); mhp runs the
// may-happen-in-parallel analysis (-json prints the whole report);
// clocked runs a clocked program under the barrier semantics
// (internal/clocks); constraints prints the generated constraint
// system (Figure 5 style); explore computes the exact MHP relation by
// exhaustive interleaving search; fuzz differentially tests the
// analysis against the explorer and the instrumented runtime
// (internal/difffuzz); print pretty-prints; check parses and
// validates.
//
// FILE may be core FX10 (.fx10, parsed directly) or a language with a
// front end (internal/frontend): X10-subset .x10 files and restricted
// Go .go files, chosen by extension or forced with -lang.
// `fx10 mhp main.go` analyzes a real Go file's goroutine structure.
// FILE "-" reads stdin, which needs an explicit -lang.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"fx10/internal/clocks"
	"fx10/internal/condensed"
	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/explore"
	"fx10/internal/frontend"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/machine"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/places"
	"fx10/internal/runtime"
	"fx10/internal/syntax"
	"fx10/internal/tree"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fx10:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode distinguishes failure classes for scripting: 2 means the
// input did not parse or failed static validation (including clock
// misuse: next/advance inside an unclocked async), could not be routed
// to a front end, or named an unregistered solver strategy; 3 means
// the analysis (or the condensed→core lowering) itself failed on input
// that parsed; 1 is everything else.
func exitCode(err error) int {
	var pe *parser.Error
	var ce *syntax.ClockUseError
	var ue *engine.UnknownStrategyError
	var fpe *frontend.ParseError
	var fue *frontend.UnknownLanguageError
	var fae *frontend.AmbiguousInputError
	var ae *engine.AnalysisError
	var le *condensed.LoweringError
	switch {
	case errors.As(err, &pe), errors.As(err, &ce), errors.As(err, &ue),
		errors.As(err, &fpe), errors.As(err, &fue), errors.As(err, &fae):
		return 2
	case errors.As(err, &ae), errors.As(err, &le):
		return 3
	}
	return 1
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: fx10 <run|exec|clocked|mhp|constraints|explore|fuzz|print|check> [flags] FILE")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		return cmdRun(rest)
	case "exec":
		return cmdExec(rest)
	case "mhp":
		return cmdMHP(rest)
	case "clocked":
		return cmdClocked(rest)
	case "constraints":
		return cmdConstraints(rest)
	case "explore":
		return cmdExplore(rest)
	case "fuzz":
		return cmdFuzz(rest)
	case "print":
		return cmdPrint(rest)
	case "check":
		return cmdCheck(rest)
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// langFlag registers the shared -lang flag on a subcommand's flag set;
// loadProgram picks it up by name.
func langFlag(fs *flag.FlagSet) {
	fs.String("lang", "", "source language ("+strings.Join(frontend.Names(), ", ")+
		", or fx10 for core syntax); default: .fx10 parses as core, other extensions are detected")
}

// loadProgram reads the positional FILE argument of a flag set ("-"
// for stdin) and builds its program with frontend.Program, honoring
// the -lang flag when the subcommand registered one. Core FX10 (-lang
// fx10, or a .fx10 extension with no -lang) keeps source label names;
// a barrier inside an unclocked async is rejected (exit code 2) like
// any other invalid input.
func loadProgram(fs *flag.FlagSet) (*syntax.Program, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one input file")
	}
	path := fs.Arg(0)
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	lang := ""
	if f := fs.Lookup("lang"); f != nil {
		lang = f.Value.String()
	}
	p, _, err := frontend.Program(lang, path, string(data))
	return p, err
}

// printPairs prints set's unordered pairs under a "<what> MHP pairs:
// N" heading, one sorted "(a, b)" line each.
func printPairs(what string, p *syntax.Program, set *intset.PairSet) {
	var pairs []string
	set.Each(func(i, j int) {
		if i <= j {
			pairs = append(pairs, fmt.Sprintf("(%s, %s)", p.LabelName(syntax.Label(i)), p.LabelName(syntax.Label(j))))
		}
	})
	sort.Strings(pairs)
	fmt.Printf("%s MHP pairs: %d\n", what, len(pairs))
	for _, pr := range pairs {
		fmt.Println(" ", pr)
	}
}

// parseArray parses "1,2,3" into an initial array prefix.
func parseArray(csv string) ([]int64, error) {
	if csv == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad array value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	langFlag(fs)
	sched := fs.String("sched", "leftmost", "scheduler: leftmost or random")
	seed := fs.Int64("seed", 0, "random scheduler seed")
	steps := fs.Int("steps", 1_000_000, "maximum steps")
	a0 := fs.String("a", "", "initial array prefix, e.g. 1,0,2")
	trace := fs.Bool("trace", false, "print every intermediate tree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadProgram(fs)
	if err != nil {
		return err
	}
	arr, err := parseArray(*a0)
	if err != nil {
		return err
	}
	var s machine.Scheduler = machine.Leftmost{}
	switch *sched {
	case "leftmost":
	case "random":
		s = machine.NewRandom(*seed)
	default:
		return fmt.Errorf("unknown scheduler %q", *sched)
	}
	st := machine.Initial(p, arr)
	if *trace {
		states := machine.Trace(p, st, s, *steps)
		for i, cur := range states {
			fmt.Printf("%4d  %s  a=%v\n", i, tree.String(p, cur.T), cur.A)
		}
		last := states[len(states)-1]
		fmt.Printf("done=%v steps=%d result a[0]=%d\n", last.T.Done(), len(states)-1, last.A[0])
		return nil
	}
	res := machine.Run(p, st, s, *steps)
	fmt.Printf("done=%v steps=%d a=%v result a[0]=%d\n", res.Done, res.Steps, res.Final.A, res.Final.A[0])
	if !res.Done {
		return fmt.Errorf("step budget exhausted (program may diverge; raise -steps)")
	}
	return nil
}

func cmdExec(args []string) error {
	fs := flag.NewFlagSet("exec", flag.ContinueOnError)
	langFlag(fs)
	procs := fs.Int("procs", 0, "max concurrent async goroutines (0 = unbounded)")
	maxSteps := fs.Int64("steps", runtime.DefaultMaxSteps, "instruction budget")
	a0 := fs.String("a", "", "initial array prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadProgram(fs)
	if err != nil {
		return err
	}
	arr, err := parseArray(*a0)
	if err != nil {
		return err
	}
	res, err := runtime.Run(p, arr, runtime.Options{MaxGoroutines: *procs, MaxSteps: *maxSteps})
	if err != nil {
		return err
	}
	fmt.Printf("a=%v result a[0]=%d steps=%d goroutines=%d inlined=%d maxlive=%d\n",
		res.Array, res.Array[0], res.Steps, res.Spawned, res.Inlined, res.MaxLive)
	return nil
}

func cmdClocked(args []string) error {
	fs := flag.NewFlagSet("clocked", flag.ContinueOnError)
	langFlag(fs)
	seed := fs.Int64("seed", 0, "scheduling seed")
	steps := fs.Int("steps", 1_000_000, "step budget")
	a0 := fs.String("a", "", "initial array prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadProgram(fs)
	if err != nil {
		return err
	}
	arr, err := parseArray(*a0)
	if err != nil {
		return err
	}
	res, err := clocks.Run(p, arr, *seed, *steps)
	if err != nil {
		return err
	}
	fmt.Printf("a=%v result a[0]=%d steps=%d phases=%d\n",
		res.Array, res.Array[0], res.Steps, res.Phases)
	return nil
}

func cmdMHP(args []string) error {
	fs := flag.NewFlagSet("mhp", flag.ContinueOnError)
	langFlag(fs)
	mode := fs.String("mode", "cs", "analysis mode: cs (context-sensitive) or ci")
	strategy := fs.String("strategy", "", "solver strategy (default: "+engine.DefaultStrategy+"); unknown names list the registered ones")
	showPairs := fs.Bool("pairs", true, "print the MHP label pairs")
	showRaces := fs.Bool("races", false, "print race candidates")
	withPlaces := fs.Bool("places", false, "apply the same-place refinement (Section 8 extension)")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report (ignores the other output flags)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := constraints.ParseMode(*mode)
	if err != nil {
		return err
	}
	p, err := loadProgram(fs)
	if err != nil {
		return err
	}
	// Resolve the strategy first: a bad name errors out listing the
	// registered ones.
	e, err := engine.New(engine.Config{Strategy: *strategy, CacheSize: -1})
	if err != nil {
		return err
	}
	res, err := e.Analyze(engine.Job{Name: fs.Arg(0), Program: p, Mode: m})
	if err != nil {
		return err
	}
	r := mhp.FromEngine(res)
	if *asJSON {
		return r.WriteJSON(os.Stdout)
	}
	set := r.M
	if *withPlaces {
		set = places.Compute(p).Refine(set)
	}

	if *showPairs {
		printPairs(m.String(), p, set)
	}

	counts := mhp.CountPairs(r.AsyncBodyPairs())
	fmt.Printf("async-body pairs: total=%d self=%d same=%d diff=%d\n",
		counts.Total, counts.Self, counts.Same, counts.Diff)
	if r.Sys.PhaseCode != nil {
		fmt.Printf("clock phases: pruned %d pairs\n", r.Sol.ClockPrunedMainPairs().UnorderedLen())
	}
	fmt.Printf("iterations: Slabels=%d level1=%d level2=%d\n",
		r.Sol.IterSlabels, r.Sol.IterL1, r.Sol.IterL2)

	if *showRaces {
		races := r.RaceCandidates()
		fmt.Printf("race candidates: %d\n", len(races))
		for _, rc := range races {
			kind := "write/read"
			if rc.WriteWrite {
				kind = "write/write"
			}
			fmt.Printf("  a[%d]: %s vs %s (%s)\n", rc.Index, p.LabelName(rc.L1), p.LabelName(rc.L2), kind)
		}
	}
	return nil
}

func cmdConstraints(args []string) error {
	fs := flag.NewFlagSet("constraints", flag.ContinueOnError)
	langFlag(fs)
	mode := fs.String("mode", "cs", "analysis mode: cs or ci")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := constraints.ParseMode(*mode)
	if err != nil {
		return err
	}
	p, err := loadProgram(fs)
	if err != nil {
		return err
	}
	sys := constraints.Generate(labels.Compute(p), m)
	sl, l1, l2 := sys.Counts()
	fmt.Printf("// %s: %d Slabels, %d level-1, %d level-2 constraints\n", m, sl, l1, l2)
	fmt.Print(sys.String())
	return nil
}

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	langFlag(fs)
	maxStates := fs.Int("max", 1_000_000, "state budget")
	a0 := fs.String("a", "", "initial array prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadProgram(fs)
	if err != nil {
		return err
	}
	arr, err := parseArray(*a0)
	if err != nil {
		return err
	}
	res := explore.MHP(p, arr, *maxStates)
	fmt.Printf("states=%d complete=%v terminated=%v\n", res.States, res.Complete, res.Terminated)
	printPairs("exact", p, res.MHP)
	return nil
}

func cmdPrint(args []string) error {
	fs := flag.NewFlagSet("print", flag.ContinueOnError)
	langFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadProgram(fs)
	if err != nil {
		return err
	}
	fmt.Print(syntax.Print(p))
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	langFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadProgram(fs)
	if err != nil {
		return err
	}
	fmt.Printf("ok: %d methods, %d labels, array length %d\n",
		len(p.Methods), p.NumLabels(), p.ArrayLen)
	return nil
}
