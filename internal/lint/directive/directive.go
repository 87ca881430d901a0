// Package directive parses soter-vet suppression comments. A diagnostic is
// suppressed by writing
//
//	//soter:nondet-ok <reason>   (detsource findings)
//	//soter:ctx-ok <reason>      (ctxflow findings)
//
// either on the offending line or on the line immediately above it. The
// reason is mandatory: a bare directive is itself reported, so every audited
// exception in the tree carries its justification next to the code.
package directive

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// prefix is the namespace every soter-vet directive lives under.
const prefix = "//soter:"

// Directive is one parsed suppression comment.
type Directive struct {
	// Name is the directive kind without the namespace ("nondet-ok").
	Name string
	// Reason is the free-text justification after the name.
	Reason string
	// Pos is the comment's position.
	Pos token.Pos
}

// Index maps source lines of one file set to the directives written on them.
type Index struct {
	fset  *token.FileSet
	lines map[string]map[int]Directive // filename -> line -> directive
}

// ParseFiles collects the directives of every file in one pass.
func ParseFiles(fset *token.FileSet, files []*ast.File) *Index {
	idx := &Index{fset: fset, lines: map[string]map[int]Directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, prefix)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				m := idx.lines[pos.Filename]
				if m == nil {
					m = map[int]Directive{}
					idx.lines[pos.Filename] = m
				}
				m[pos.Line] = Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Pos()}
			}
		}
	}
	return idx
}

// SuppressedAt reports whether a directive of the given name covers pos —
// written on the same line or the line immediately above. When the covering
// directive has no reason, the suppression is honoured but the missing
// reason is reported through pass, so audits never go unexplained.
func (idx *Index) SuppressedAt(pass *analysis.Pass, name string, pos token.Pos) bool {
	p := idx.fset.Position(pos)
	m := idx.lines[p.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		d, ok := m[line]
		if !ok || d.Name != name {
			continue
		}
		if d.Reason == "" {
			pass.Reportf(d.Pos, "//soter:%s directive needs a reason", name)
		}
		return true
	}
	return false
}
