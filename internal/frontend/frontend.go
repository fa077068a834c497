// Package frontend is the language boundary of the analysis
// pipeline. Program is its front door: it turns source text into the
// core FX10 program every analysis runs on, and the daemon, the fx10
// CLI and the cross-front-end fuzzer build their programs only
// through it. Core FX10 goes to the core parser; the two other
// languages, X10 and Go, are a fixed table of front ends that lower
// to the paper's condensed form (Figure 7), which condensed.Lower
// then turns into core FX10.
//
// A front end owns exactly one job: turn source text into a
// *condensed.Unit plus lowering statistics. What the front end cannot
// express in the calculus it must drop *conservatively* — lowering an
// unknown construct to skip (never inventing an ordering edge such as
// finish) keeps the downstream MHP analysis sound, in the spirit of
// Might & Van Horn's conservative summaries for constructs outside
// the modeled language. Each such drop is reported as a Diagnostic so
// callers can measure lowering coverage.
package frontend

import (
	"fmt"
	"strings"

	"fx10/internal/condensed"
	"fx10/internal/gofront"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/x10"
)

// Diagnostic and Stats are the lowering statistics of the condensed
// form, which both front ends emit.
type (
	Diagnostic = condensed.Diagnostic
	Stats      = condensed.Stats
)

// Frontend lowers one source language to the condensed form.
type Frontend struct {
	name, ext string
	lower     func(src string) (*condensed.Unit, Stats, error)
}

// frontends is every front end, sorted by name.
var frontends = [...]*Frontend{
	{name: "go", ext: ".go", lower: gofront.Lower},
	{name: "x10", ext: ".x10", lower: lowerX10},
}

// Name is the language key used by -lang flags and the server's
// "language" field ("x10" or "go").
func (f *Frontend) Name() string { return f.name }

// Lower parses src and produces a condensed unit. A parse failure is
// a *ParseError.
func (f *Frontend) Lower(src string) (*condensed.Unit, Stats, error) {
	u, st, err := f.lower(src)
	if err != nil {
		return nil, Stats{}, &ParseError{Lang: f.name, Err: err}
	}
	return u, st, nil
}

// lowerX10 runs internal/x10, the X10-subset parser. Library calls —
// calls to methods not defined in the unit — are resolved to skip,
// the paper implementation's behavior, and reported as dropped
// constructs.
func lowerX10(src string) (*condensed.Unit, Stats, error) {
	u, st, err := x10.Parse(src)
	if err != nil {
		return nil, Stats{}, err
	}
	// Statements are the materialized nodes: everything but the
	// implicit End terminators and the Method nodes themselves.
	c := u.NodeCounts()
	st.Stmts = c.Total - c.Of(condensed.End) - c.Of(condensed.Method)
	for _, name := range x10.ResolveCallsNamed(u) {
		st.Dropped = append(st.Dropped, Diagnostic{Construct: "library call", Detail: name})
	}
	return u, st, nil
}

// ParseError wraps a parse failure, of core FX10 or of a front end,
// so CLI exit-code policy (parse → 2) and the daemon (422) can
// classify it without knowing the language. Its message is the
// parser's own, which names the front end's language.
type ParseError struct {
	Lang string
	Err  error
}

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// UnknownLanguageError is returned by Lookup for a language with no
// front end. CLIs map it to exit 2 (input error), the daemon to 400.
type UnknownLanguageError struct {
	Lang  string
	Known []string
}

func (e *UnknownLanguageError) Error() string {
	return fmt.Sprintf("unknown language %q (known: %s)", e.Lang, strings.Join(e.Known, ", "))
}

// AmbiguousInputError is returned by Detect when no front end claims
// the path — typically stdin, which has no extension. CLIs map it to
// exit 2 and tell the user to pass -lang.
type AmbiguousInputError struct {
	Path string
}

func (e *AmbiguousInputError) Error() string {
	return fmt.Sprintf("cannot detect a front end for %q; pass -lang (%s)", e.Path, strings.Join(Names(), ", "))
}

// Lookup resolves a language name, case- and space-insensitively, to
// its front end; "golang" is another name for "go".
func Lookup(lang string) (*Frontend, error) {
	name := strings.ToLower(strings.TrimSpace(lang))
	if name == "golang" {
		name = "go"
	}
	for _, f := range frontends {
		if f.name == name {
			return f, nil
		}
	}
	return nil, &UnknownLanguageError{Lang: lang, Known: Names()}
}

// Names returns the front-end names, sorted.
func Names() []string {
	names := make([]string, len(frontends))
	for i, f := range frontends {
		names[i] = f.name
	}
	return names
}

// Detect picks the front end by path's extension. If none claims it,
// the error is an *AmbiguousInputError.
func Detect(path string) (*Frontend, error) {
	for _, f := range frontends {
		if strings.HasSuffix(path, f.ext) {
			return f, nil
		}
	}
	return nil, &AmbiguousInputError{Path: path}
}

// pick resolves lang, or detects the front end from path when lang is
// empty.
func pick(lang, path string) (*Frontend, error) {
	if lang != "" {
		return Lookup(lang)
	}
	return Detect(path)
}

// Lower resolves lang (or detects from path when lang is empty) and
// lowers src. Parse failures come back as *ParseError so callers can
// classify them uniformly.
func Lower(lang, path, src string) (*condensed.Unit, Stats, error) {
	f, err := pick(lang, path)
	if err != nil {
		return nil, Stats{}, err
	}
	return f.Lower(src)
}

// Program turns source text into the core FX10 program the analysis
// runs on, and returns the canonical language name ("fx10", "x10" or
// "go"), which keys delta sessions. lang is matched case- and
// space-insensitively. Core FX10 — lang "fx10", or no lang and an
// empty or .fx10 path — goes to the core parser, which keeps source
// label names; anything else goes through its front end (by lang, or
// detected from path) and condensed.Lower. Either way a next/advance
// inside an unclocked async is rejected. Every failure is one of
// *UnknownLanguageError, *AmbiguousInputError, *ParseError,
// *condensed.LoweringError or *syntax.ClockUseError.
func Program(lang, path, src string) (*syntax.Program, string, error) {
	lang = strings.ToLower(strings.TrimSpace(lang))
	var p *syntax.Program
	if lang == "fx10" || lang == "" && (path == "" || strings.HasSuffix(path, ".fx10")) {
		lang = "fx10"
		var err error
		if p, err = parser.Parse(src); err != nil {
			return nil, lang, &ParseError{Lang: lang, Err: err}
		}
	} else {
		f, err := pick(lang, path)
		if err != nil {
			return nil, lang, err
		}
		lang = f.name
		u, _, err := f.Lower(src)
		if err != nil {
			return nil, lang, err
		}
		if p, err = condensed.Lower(u); err != nil {
			return nil, lang, err
		}
	}
	if err := syntax.CheckClockUse(p); err != nil {
		return nil, lang, err
	}
	return p, lang, nil
}
