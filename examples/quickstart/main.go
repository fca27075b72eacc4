// Quickstart: define transformation rules, compute similarity
// distances, and run a similarity query — the framework in twenty
// lines.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	// 1. The transformation rule language T: unit edits plus a cheap
	//    o<->u substitution ("colour" should be nearly "color").
	rules := append([]repro.Rule{
		repro.Subst('o', 'u', 0.1),
		repro.Subst('u', 'o', 0.1),
	}, repro.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules()...)
	rs := repro.MustRuleSet("spelling", rules)

	// 2. Distances: object A is similar to B if A can be rewritten into
	//    B at bounded cost.
	calc, err := repro.NewEditCalculator(rs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("d(colour -> color)  = %.2f\n", calc.Distance("colour", "color"))
	fmt.Printf("d(color  -> dollar) = %.2f\n", calc.Distance("color", "dollar"))

	// 3. The pattern language P: distance to a *set* of objects.
	p, err := repro.CompilePattern("col(o|u)+r")
	if err != nil {
		log.Fatal(err)
	}
	member, d, _ := repro.NearestMember(calc, "colon", p, 5)
	fmt.Printf("nearest member of col(o|u)+r to colon: %q at %.2f\n", member, d)

	// 4. The query language L over a relation.
	cat := repro.NewCatalog()
	words := repro.NewRelation("words")
	for _, w := range []string{"color", "colour", "colon", "dolor", "cool", "dollar"} {
		words.Insert(w, nil)
	}
	cat.Add(words)
	eng := repro.NewQueryEngine(cat)
	if err := eng.RegisterRuleSet(rs); err != nil {
		log.Fatal(err)
	}
	res, err := eng.Execute(`SELECT seq, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 0.5 USING spelling`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwords within 0.5 of \"color\", plan:\n  %s\n", strings.ReplaceAll(res.Plan(), "\n", "\n  "))
	for _, row := range res.Rows {
		fmt.Printf("  %-8s dist=%s\n", row[0], row[1])
	}
}
