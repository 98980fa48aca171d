// Package analysis is the project-invariant static-analysis suite
// behind cmd/impeccable-vet. The reproduction's headline guarantee —
// byte-identical science across the sequential and EnTK drivers, and
// across crash/restart/worker-kill reruns — rests on invariants that
// ordinary tests cannot pin down exhaustively: all
// randomness flows through xrand.RNG, all schedulable time through
// hpc.Clock, terminal job-state transitions journal before they apply,
// and the scheduler/job/bus mutexes nest in one fixed order. This
// package turns each invariant into a compile-time check over the
// typed AST, in the spirit of analyzing concurrent programs against
// declared concurrency specifications rather than testing them.
//
// The framework is dependency-free: stdlib go/parser, go/ast, go/types
// and go/token only (matching the zero-dep ethos of internal/obs). It
// deliberately mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer reports Diagnostics through a Pass — without importing
// it, so the module's dependency graph stays empty.
//
// Findings are suppressed, one site at a time, with directive
// comments of the form
//
//	//impeccable:<keyword> <justification>
//
// placed on the offending line or the line directly above it. Each
// analyzer accepts its own keyword (wallclock, lockorder, unjournaled,
// metricname, unordered); the keyword "ignore" silences any analyzer.
// A directive is a reviewed, greppable exception — the justification
// text is part of the contract.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Run inspects a single
// type-checked package and reports findings through the pass.
type Analyzer interface {
	// Name identifies the analyzer in diagnostics and in the
	// -analyzers flag.
	Name() string
	// Doc is the one-line description shown by impeccable-vet's usage.
	Doc() string
	// Directive is the suppression keyword the analyzer honors
	// (besides the universal "ignore").
	Directive() string
	// Run analyzes one package.
	Run(pass *Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Pkg      *Package
	analyzer Analyzer
	diags    *[]Diagnostic
}

// Report files a diagnostic at pos unless a matching suppression
// directive covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.suppressed(position, p.analyzer.Directive()) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name(),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies each analyzer to each package and returns the combined
// unsuppressed findings sorted by position.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{Pkg: pkg, analyzer: a, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "//impeccable:"

// suppressed reports whether a directive with the given keyword (or
// "ignore") covers the line at position: same line, or the line
// directly above.
func (pkg *Package) suppressed(pos token.Position, keyword string) bool {
	lines, ok := pkg.directives[pos.Filename]
	if !ok {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, kw := range lines[line] {
			if kw == keyword || kw == "ignore" {
				return true
			}
		}
	}
	return false
}

// parseDirective extracts the keyword from one comment's text, or ""
// when the comment is not a directive. The keyword runs to the first
// space; everything after it is the human justification.
func parseDirective(text string) string {
	if !strings.HasPrefix(text, directivePrefix) {
		return ""
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}
