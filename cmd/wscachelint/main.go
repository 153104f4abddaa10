// Command wscachelint runs the repository's domain-specific static
// analyzers (internal/lint/checks) over Go packages, _test.go files
// included.
//
// Usage:
//
//	wscachelint [flags] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status is 0 when no diagnostics are found, 1 when diagnostics are
// reported, and 2 when loading or type-checking fails.
//
// Output formats (-format): "text" (default, file:line:col lines),
// "json" (a JSON array of diagnostics), and "sarif" (a SARIF 2.1.0
// log for code-scanning upload).
//
// Diagnostics can be suppressed per line with
//
//	//lint:ignore <check> <reason>
//
// which covers the comment's own line and the line directly below it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/checks"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("wscachelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array (alias for -format json)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	only := fs.String("checks", "", "comma-separated list of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	all := checks.All()
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: wscachelint [flags] [packages]\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nchecks:\n")
		for _, a := range all {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	analyzers := all
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "wscachelint: unknown format %q (text, json, or sarif)\n", *format)
		return 2
	}
	if *jsonOut {
		*format = "json"
	}

	// The full registry stays the suppression vocabulary even when
	// -checks narrows what runs: an ignore naming a check that merely
	// isn't running this invocation is not a typo.
	known := make([]string, 0, len(all))
	for _, a := range all {
		known = append(known, a.Name)
	}

	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "wscachelint: unknown check %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "wscachelint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "wscachelint: %v\n", err)
		return 2
	}

	diags := lint.Run(cwd, pkgs, analyzers, known)

	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "wscachelint: %v\n", err)
			return 2
		}
	case "sarif":
		out, err := lint.SARIF(diags, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "wscachelint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	default:
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
