// Package analysis is an API-compatible subset of
// golang.org/x/tools/go/analysis, re-declared locally so the predlint
// analyzer suite can be written against the standard analyzer interface
// without pulling the external module into this hermetically-built repo.
//
// The subset covers exactly what a standalone multichecker needs: Analyzer,
// Pass, Diagnostic, SuggestedFix and TextEdit, with the same field names and
// semantics as the upstream package. Analyzers written against this package
// are drop-in upstream analyzers: switching to the real dependency is a
// one-line import change (and is the intended end state once the build
// environment can vendor golang.org/x/tools). Features this repo does not
// need — facts, Requires/ResultOf plumbing between analyzers, per-analyzer
// flag sets — are intentionally absent.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static analysis: a name, a doc string, and the
// function applied to every package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and JSON output.
	// By upstream convention it is a valid Go identifier.
	Name string

	// Doc is the one-paragraph documentation, shown by predlint -help.
	Doc string

	// Run applies the analyzer to a single package. It must report
	// findings through Pass.Report and may return an analyzer-specific
	// result (unused by this subset's driver, kept for API parity).
	Run func(*Pass) (interface{}, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass hands one package's syntax and type information to an analyzer. All
// fields mirror upstream; a Pass is valid only for the duration of Run.
type Pass struct {
	Analyzer *Analyzer

	Fset       *token.FileSet // file position information
	Files      []*ast.File    // the package's syntax trees
	Pkg        *types.Package // type information about the package
	TypesInfo  *types.Info    // type information about the syntax
	TypesSizes types.Sizes    // the target platform's sizeof/alignof/offsetsof

	// Report is called for each diagnostic. It is set by the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding: a source position, a message, and optional
// machine-applicable fixes.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional: end of the flagged region
	Category string    // optional: sub-category within the analyzer
	Message  string

	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one suggested change, expressed as textual edits. Edits
// must not overlap and must all apply to files of the analyzed package.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces the source interval [Pos, End) with NewText. Pos == End
// means a pure insertion.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}
