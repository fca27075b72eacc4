// Command simq is the interactive shell (and one-shot runner) for the
// similarity query language.
//
// Usage:
//
//	simq -load words=words.rel -rules edits.rules \
//	     -e 'SELECT * FROM words WHERE seq SIMILAR TO "colour" WITHIN 2 USING edits'
//
//	simq -load words=words.rel        # REPL on stdin
//
// Rule files use the textual rule language of internal/rewrite; when no
// -rules file is given, a default rule set "edits" (unit edits over
// a-z) is registered. The REPL accepts one statement per line plus the
// meta commands \tables, \rules and \quit. Statements may use N-way
// FROM lists, ORDER BY dist [ASC|DESC] and LIMIT; EXPLAIN prints the
// physical operator tree the cost-based planner chose.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

type loadList []string

func (l *loadList) String() string     { return strings.Join(*l, ",") }
func (l *loadList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var loads loadList
	flag.Var(&loads, "load", "NAME=FILE relation to load (repeatable)")
	var ruleFiles loadList
	flag.Var(&ruleFiles, "rules", "rule file to register (repeatable)")
	stmt := flag.String("e", "", "execute one statement and exit")
	flag.Parse()

	cat := relation.NewCatalog()
	for _, spec := range loads {
		eq := strings.IndexByte(spec, '=')
		if eq < 0 {
			fail(fmt.Errorf("-load wants NAME=FILE, got %q", spec))
		}
		name, file := spec[:eq], spec[eq+1:]
		f, err := os.Open(file)
		if err != nil {
			fail(err)
		}
		rel, err := relation.Load(name, f)
		f.Close()
		if err != nil {
			fail(err)
		}
		cat.Add(rel)
		fmt.Fprintf(os.Stderr, "loaded %s: %d tuples\n", name, rel.Len())
	}

	eng := query.NewEngine(cat)
	if len(ruleFiles) == 0 {
		rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())
		if err := eng.RegisterRuleSet(rs); err != nil {
			fail(err)
		}
	}
	for _, file := range ruleFiles {
		f, err := os.Open(file)
		if err != nil {
			fail(err)
		}
		rs, err := rewrite.ParseRuleSet(strings.TrimSuffix(file, ".rules"), f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if err := eng.RegisterRuleSet(rs); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "registered rule set %s (%d rules)\n", rs.Name(), rs.Len())
	}

	if *stmt != "" {
		if err := run(eng, *stmt); err != nil {
			fail(err)
		}
		return
	}

	fmt.Fprintln(os.Stderr, `simq: enter statements, or \tables, \rules, \quit`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Fprint(os.Stderr, "simq> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			for _, n := range cat.Names() {
				r, _ := cat.Lookup(n)
				fmt.Printf("%s (%d tuples)\n", n, r.Len())
			}
			continue
		case line == `\rules`:
			for _, n := range eng.RuleSets() {
				fmt.Println(n)
			}
			continue
		}
		if err := run(eng, line); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

func run(eng *query.Engine, stmt string) error {
	res, err := eng.Execute(stmt)
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		fmt.Println(strings.Join(row, "\t"))
	}
	fmt.Fprintf(os.Stderr, "(%d rows; %d candidates, %d verifications; plan:\n%s)\n",
		len(res.Rows), res.Stats.Candidates, res.Stats.Verifications, indent(res.Plan(), "  "))
	return nil
}

// indent prefixes every line of a rendered plan tree.
func indent(s, prefix string) string {
	return prefix + strings.ReplaceAll(s, "\n", "\n"+prefix)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "simq: %v\n", err)
	os.Exit(1)
}
