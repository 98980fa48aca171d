package analysis

import (
	"go/ast"
	"go/types"
)

// JournalBefore enforces the ack-durability invariant of the campaign
// service: a terminal job-state transition must be journaled before it
// is applied. An acknowledged cancel or completion that reaches memory
// before the write-ahead journal can be lost across a crash — the
// restarted coordinator would revive a job whose cancellation was
// already acked, or drop a result a worker was told had landed. The
// analyzer flags every assignment of a terminal state to the job
// record that is not preceded, in the same function, by a journal
// append.
//
// The invariant has one deliberate exception, carrying an
// //impeccable:unjournaled directive at each site: journal replay,
// which applies states read from the journal itself. Every live
// transition — in-process holders and remote workers share one lease
// path — journals first; TestUnjournaledOnlyInReplay keeps the waiver
// from spreading.
type JournalBefore struct {
	// Packages lists the import paths under the invariant.
	Packages []string
	// StateType is the qualified named type holding the state field
	// ("pkgpath.job").
	StateType string
	// StateField is the state field's name.
	StateField string
	// StateValueType is the qualified state value type
	// ("pkgpath.JobState"); a non-constant assignment of this type is
	// treated as possibly terminal.
	StateValueType string
	// Terminal lists the package-level constant names that denote
	// terminal states.
	Terminal []string
	// JournalCalls lists callee names (methods, funcs or function
	// fields) that append to the journal.
	JournalCalls []string
}

func (*JournalBefore) Name() string { return "journalbefore" }
func (*JournalBefore) Doc() string {
	return "terminal job-state writes must be preceded by a journal append in the same function"
}
func (*JournalBefore) Directive() string { return "unjournaled" }

func (a *JournalBefore) Run(pass *Pass) {
	if !pathInList(pass.Pkg.Path, a.Packages) {
		return
	}
	info := pass.Pkg.Info
	journalCall := map[string]bool{}
	for _, n := range a.JournalCalls {
		journalCall[n] = true
	}
	terminal := map[string]bool{}
	for _, n := range a.Terminal {
		terminal[n] = true
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// One linear pass in source order: remember whether a journal
			// append has been seen when each state write is reached.
			journaled := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if name := calleeName(info, n); journalCall[name] {
						journaled = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if !a.isStateField(info, lhs) {
							continue
						}
						rhs := n.Rhs[0]
						if len(n.Lhs) == len(n.Rhs) {
							for i, l := range n.Lhs {
								if l == lhs {
									rhs = n.Rhs[i]
								}
							}
						}
						kind, isTerminal := a.classify(info, terminal, rhs)
						if !isTerminal || journaled {
							continue
						}
						pass.Reportf(n.Pos(),
							"%s terminal state write without a preceding journal append in this function: an acked transition must be durable before it applies",
							kind)
					}
				}
				return true
			})
		}
	}
}

// isStateField reports whether the expression is the governed state
// field of the governed record type.
func (a *JournalBefore) isStateField(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != a.StateField {
		return false
	}
	t := info.TypeOf(sel.X)
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path()+"."+named.Obj().Name() == a.StateType
}

// classify decides whether the assigned value is (or may be) a
// terminal state.
func (a *JournalBefore) classify(info *types.Info, terminal map[string]bool, rhs ast.Expr) (string, bool) {
	// A direct reference to a package-level state constant is decisive.
	if id, ok := rhs.(*ast.Ident); ok {
		if c, ok := info.Uses[id].(*types.Const); ok {
			if terminal[c.Name()] {
				return "a", true
			}
			return "", false
		}
	}
	// Any other expression of the state value type may evaluate to a
	// terminal state; the journal must already have the event either way.
	t := info.TypeOf(rhs)
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path()+"."+named.Obj().Name() == a.StateValueType {
		return "a possibly-", true
	}
	return "", false
}

// calleeName extracts the final name of a call's callee: method name,
// function name, or function-valued field name. Builtins never count —
// `append(jobs, j)` must not satisfy a journal method named "append".
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, builtin := info.Uses[fun].(*types.Builtin); builtin {
			return ""
		}
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
