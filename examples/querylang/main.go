// Querylang: the query language L end to end — range queries, pattern
// predicates, attribute filters, kNN, similarity joins and EXPLAIN.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	cat := repro.NewCatalog()
	words := repro.NewRelation("words")
	for _, w := range []struct{ s, lang string }{
		{"color", "en"}, {"colour", "uk"}, {"colon", "en"}, {"cool", "en"},
		{"dolor", "la"}, {"velour", "fr"}, {"clamor", "en"}, {"valor", "en"},
		{"dollar", "en"}, {"collar", "en"},
	} {
		words.Insert(w.s, map[string]string{"lang": w.lang})
	}
	cat.Add(words)

	eng := repro.NewQueryEngine(cat)
	if err := eng.RegisterRuleSet(repro.MustRuleSet("edits",
		repro.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())); err != nil {
		log.Fatal(err)
	}
	cheap := append([]repro.Rule{
		repro.Subst('o', 'u', 0.1), repro.Subst('u', 'o', 0.1),
		repro.Insert('u', 0.2), repro.Delete('u', 0.2),
	}, repro.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules()...)
	if err := eng.RegisterRuleSet(repro.MustRuleSet("vowels", cheap)); err != nil {
		log.Fatal(err)
	}

	for _, stmt := range []string{
		`EXPLAIN SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits`,
		`SELECT seq, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits`,
		`SELECT seq, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 0.5 USING vowels`,
		`SELECT seq, lang FROM words WHERE seq SIMILAR TO "color" WITHIN 2 USING edits AND lang = "en"`,
		`SELECT seq, dist FROM words WHERE seq SIMILAR TO PATTERN "c.l+(a|o)r" WITHIN 1 USING edits`,
		`SELECT seq, dist FROM words WHERE seq NEAREST 3 TO "colour" USING edits`,
		`SELECT a.seq, b.seq, dist FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING edits AND a.id != b.id LIMIT 6`,
	} {
		fmt.Printf("simq> %s\n", stmt)
		res, err := eng.Execute(stmt)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range res.Rows {
			fmt.Printf("  %v\n", row)
		}
		fmt.Printf("  (%d rows; plan:\n    %s)\n\n", len(res.Rows),
			strings.ReplaceAll(res.Plan(), "\n", "\n    "))
	}
}
