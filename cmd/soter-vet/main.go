// Command soter-vet runs the repo's custom go/analysis suite — the
// determinism and context-flow invariants that `go vet` cannot know about
// and no test can see (see internal/lint). It loads the named packages'
// non-test files, applies every analyzer, and prints positioned findings:
//
//	$ go run ./cmd/soter-vet ./...
//	internal/foo/bar.go:12:9: detsource: time.Now reads the wall clock …
//
// Exit status: 0 clean, 1 findings, 2 the tree could not be loaded.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint"
	"repro/internal/lint/driver"
	"repro/internal/lint/load"
)

func main() {
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers of the suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: soter-vet [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := lint.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}
	if *run != "" {
		wanted := map[string]bool{}
		for _, name := range strings.Split(*run, ",") {
			wanted[strings.TrimSpace(name)] = true
		}
		var selected []*analysis.Analyzer
		for _, a := range suite {
			if wanted[a.Name] {
				selected = append(selected, a)
				delete(wanted, a.Name)
			}
		}
		for name := range wanted {
			fmt.Fprintf(os.Stderr, "soter-vet: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		suite = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(load.Config{Patterns: patterns})
	if err != nil {
		fmt.Fprintf(os.Stderr, "soter-vet: %v\n", err)
		os.Exit(2)
	}
	diags, err := driver.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soter-vet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "soter-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
