// Package repro is the public facade of the similarity-query library —
// a from-scratch Go reproduction of the framework of "Similarity-Based
// Queries" (Jagadish, Mendelzon, Milo; PODS 1995).
//
// The framework has three components:
//
//   - a pattern language P (regular expressions over sequences;
//     CompilePattern / LiteralPattern),
//   - a transformation rule language T (cost-weighted rewrite rules;
//     NewRuleSet / ParseRuleSet / UnitEdits), and
//   - a query language L (SQL-flavoured relational calculus with
//     similarity predicates; NewQueryEngine.Execute).
//
// Object A is similar to object B when B can be reduced to A by a
// sequence of transformations at bounded total cost; the minimal cost
// is the transformation distance. Three evaluators compute it, fastest
// applicable first:
//
//   - NewEditCalculator: polynomial dynamic programming for edit-like
//     rule sets (single-symbol insert/delete/substitute),
//   - NewTransformEngine: budget-bounded exact search for arbitrary
//     decidable rule sets,
//   - NewEvaluator over a Domain: the fully general, two-sided distance
//     of the paper for any object domain (sequences, time series, ...).
//
// The time-series instantiation (NewTimeSeriesDB, MovingAvg, ReverseT)
// follows the framework's published special case: DFT feature spaces,
// safe spectral transformations and an R-tree searched with the
// transformation applied on the fly.
//
// Beyond string and time-series transformation distances, the engine
// carries a pluggable metric layer (DistanceMetric, Vector): relations
// may hold a float-vector column, the registered metrics (L2, cosine)
// drive the same NEAREST / SIMILAR TO ... WITHIN predicates over it,
// and triangle-inequality metrics are served by a bulk-loaded vector
// view the way unit-cost edit distances are served by the
// length-ordered view.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/patdist"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/transform"
	"repro/internal/tsdb"
)

// Transformation rule language T.
type (
	// Rule is one rewrite rule LHS -> RHS : cost.
	Rule = rewrite.Rule
	// RuleSet is a validated, classified collection of rules.
	RuleSet = rewrite.RuleSet
)

// Rule constructors and parsers.
var (
	// NewRuleSet validates rules into a RuleSet.
	NewRuleSet = rewrite.NewRuleSet
	// MustRuleSet is NewRuleSet that panics on error.
	MustRuleSet = rewrite.MustRuleSet
	// UnitEdits returns the unit-cost edit rule set over an alphabet
	// (Levenshtein distance).
	UnitEdits = rewrite.UnitEdits
	// Insert / Delete / Subst / Swap build single rules.
	Insert = rewrite.Insert
	Delete = rewrite.Delete
	Subst  = rewrite.Subst
	Swap   = rewrite.Swap
)

// ParseRuleSet reads the textual rule language.
func ParseRuleSet(name string, r io.Reader) (*RuleSet, error) {
	return rewrite.ParseRuleSet(name, r)
}

// Distance evaluators.
type (
	// EditCalculator computes weighted edit distances (the polynomial
	// special case) with closed cost tables.
	EditCalculator = editdp.Calculator
	// TransformEngine computes exact cost-bounded transformation
	// distances for arbitrary decidable rule sets.
	TransformEngine = transform.Engine
	// EditQueryDP is a query-scoped bit-parallel (Myers) unit-cost
	// kernel: the pattern's PEQ bitmaps are built once, then Distance /
	// Within stream candidates in O(len/64) words each.
	EditQueryDP = editdp.QueryDP
)

var (
	// NewEditCalculator builds the DP evaluator for an edit-like rule set.
	NewEditCalculator = editdp.New
	// NewTransformEngine builds the general search engine; it refuses
	// rule sets in the undecidable regime (zero-cost growth).
	NewTransformEngine = transform.NewEngine
	// Levenshtein is the classical unit-cost edit distance.
	Levenshtein = editdp.Levenshtein
	// LevenshteinWithin is the banded thresholded variant.
	LevenshteinWithin = editdp.LevenshteinWithin
	// MyersDistance is the bit-parallel unit-cost edit distance
	// (Myers 1999 / Hyyrö blocks); bit-identical to Levenshtein.
	MyersDistance = editdp.MyersDistance
	// MyersWithin is the thresholded bit-parallel variant with early
	// abandon; bit-identical verdicts to LevenshteinWithin.
	MyersWithin = editdp.MyersWithin
	// NewEditQueryDP builds a query-scoped bit-parallel kernel for one
	// pattern, amortising the PEQ tables across many candidates.
	NewEditQueryDP = editdp.NewQueryDP
)

// Pattern language P.
type (
	// Pattern is a compiled regular pattern denoting a set of sequences.
	Pattern = pattern.Pattern
)

var (
	// CompilePattern compiles a pattern expression.
	CompilePattern = pattern.Compile
	// LiteralPattern returns the constant pattern matching exactly s.
	LiteralPattern = pattern.Literal
)

// PatternDistance returns the minimum transformation distance from x to
// any member of the pattern's language (the predicate x ≈ t(e)).
func PatternDistance(c *EditCalculator, x string, p *Pattern) float64 {
	return patdist.Distance(c, x, p)
}

// PatternWithin is PatternDistance with a cost budget.
func PatternWithin(c *EditCalculator, x string, p *Pattern, budget float64) (float64, bool) {
	return patdist.Within(c, x, p, budget)
}

// NearestMember returns a member of the pattern's language closest to x
// within budget.
func NearestMember(c *EditCalculator, x string, p *Pattern, budget float64) (string, float64, bool) {
	return patdist.NearestMember(c, x, p, budget)
}

// Query language L and storage.
type (
	// Relation is a named collection of sequence tuples.
	Relation = relation.Relation
	// Tuple is one row of a relation.
	Tuple = relation.Tuple
	// Catalog is a named set of relations.
	Catalog = relation.Catalog
	// QueryEngine parses, plans and executes similarity queries.
	QueryEngine = query.Engine
	// Result is a query result (columns, rows, chosen plan).
	Result = query.Result
	// PreparedQuery is a statement parsed once with '?'/':name' bind
	// parameters (Engine.Prepare) and planned afresh for each binding;
	// safe for concurrent execution.
	PreparedQuery = query.PreparedQuery
	// QueryCacheStats snapshots the engine's statement-cache counters
	// (Engine.CacheStats).
	QueryCacheStats = query.CacheStats
	// EngineOption configures a QueryEngine at construction:
	// NewQueryEngine(cat, WithParallelism(4), WithTracing(true)). The
	// Engine.Set* methods remain as thin runtime wrappers for knobs
	// that change after construction.
	EngineOption = query.Option
)

var (
	// NewRelation returns an empty relation.
	NewRelation = relation.New
	// LoadRelation reads the relation text codec.
	LoadRelation = relation.Load
	// NewCatalog returns an empty catalog.
	NewCatalog = relation.NewCatalog
	// NewQueryEngine binds a catalog to a rule-set registry,
	// configured by EngineOptions.
	NewQueryEngine = query.NewEngine
	// ParseQuery parses one statement without executing it.
	ParseQuery = query.Parse
	// WithBatchSize sets the block size operators work in (1 =
	// row-at-a-time; values below 1 clamp to 1). Fixed at construction.
	WithBatchSize = query.WithBatchSize
	// WithParallelism sets the worker count for parallel plans.
	WithParallelism = query.WithParallelism
	// WithParallelMinRows sets the outer-relation size from which the
	// planner splits work into slices across workers.
	WithParallelMinRows = query.WithParallelMinRows
	// WithPlanCacheSize sets the statement-cache capacity (<= 0
	// disables statement caching).
	WithPlanCacheSize = query.WithPlanCacheSize
	// WithTracing toggles engine-wide span collection (EXPLAIN ANALYZE
	// span trees on every Result).
	WithTracing = query.WithTracing
)

// Metric layer: pluggable continuous distances over float vectors.
type (
	// DistanceMetric is a pluggable distance over float vectors; the
	// optional capability interfaces (triangle inequality, early
	// abandon, batch evaluation) refine how the planner may use it.
	DistanceMetric = metric.Distance
	// Vector is the float-vector column type ([]float32).
	Vector = metric.Vector
)

var (
	// RegisterMetric adds a metric to the process-wide registry,
	// making its name addressable from USING clauses.
	RegisterMetric = metric.Register
	// LookupMetric resolves a registered metric by name.
	LookupMetric = metric.Lookup
	// MetricNames lists the registered metric names, sorted.
	MetricNames = metric.Names
	// ParseVector reads the canonical vector-literal syntax
	// ("[0.1,0.2]").
	ParseVector = metric.Parse
	// FormatVector renders the canonical vector-literal syntax;
	// ParseVector(FormatVector(v)) is an exact round trip.
	FormatVector = metric.Format
)

// Domain-independent framework core.
type (
	// Domain packages objects, a base distance and transformations.
	Domain = core.Domain
	// Evaluator computes the framework's two-sided similarity distance.
	Evaluator = core.Evaluator
	// Move is one applicable transformation step.
	Move = core.Move
	// TSTransformation is a time-series catalog entry.
	TSTransformation = core.TSTransformation
)

var (
	// NewEvaluator builds an evaluator over a domain.
	NewEvaluator = core.NewEvaluator
	// SequenceDomain instantiates the framework for strings.
	SequenceDomain = core.SequenceDomain
	// TimeSeriesDomain instantiates the framework for real series.
	TimeSeriesDomain = core.TimeSeriesDomain
)

// Time-series instantiation.
type (
	// TimeSeriesDB is the k-indexed time-series database.
	TimeSeriesDB = tsdb.DB
	// SpectralTransform is a safe per-coefficient transformation.
	SpectralTransform = tsdb.Transform
)

var (
	// NewTimeSeriesDB returns a database indexing k DFT coefficients.
	NewTimeSeriesDB = tsdb.New
	// MovingAvg builds the l-day moving-average transformation.
	MovingAvg = tsdb.MovingAvg
	// ReverseT builds the series-reversal transformation.
	ReverseT = tsdb.ReverseT
	// IdentityT builds the identity transformation.
	IdentityT = tsdb.Identity
	// NormalForm returns (s-mean)/std with the moments.
	NormalForm = tsdb.NormalForm
	// MovingAverage is the circular moving average in the time domain.
	MovingAverage = tsdb.MovingAverage
)
