// Command simbench regenerates the experiment tables and figure series
// documented in EXPERIMENTS.md.
//
// Usage:
//
//	simbench              # run every experiment at full size
//	simbench -quick       # run every experiment at reduced size
//	simbench -exp c12     # run one experiment (f1..f7, c8..c12, ct1, n1)
//	simbench -list        # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "reduced data sizes (seconds instead of minutes)")
	one := flag.String("exp", "", "run a single experiment id (f1..f7, c8..c12, ct1, n1)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	exp.Quick = *quick
	registry := exp.Registry()

	if *list {
		for _, e := range registry {
			fmt.Println(e.ID)
		}
		return
	}

	want := strings.ToLower(strings.TrimSpace(*one))
	found := false
	for _, e := range registry {
		if want != "" && e.ID != want {
			continue
		}
		found = true
		tab, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		tab.Fprint(os.Stdout)
	}
	if !found {
		fmt.Fprintf(os.Stderr, "simbench: unknown experiment %q (use -list)\n", want)
		os.Exit(1)
	}
}
