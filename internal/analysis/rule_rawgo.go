package analysis

import (
	"go/ast"
	"strings"
)

// checkRawGo flags raw `go` statements in internal/ packages. The repo's
// concurrency is supposed to flow through the sanctioned substrates —
// par.Pool / par.For for shared-memory loops, cluster.World for SPMD
// ranks, locale.System for locality experiments — so that worker counts,
// scheduling and shutdown stay observable and testable in one place. A
// bare goroutine bypasses all of that. Substrate packages themselves are
// exempt via Config.RawGoAllowed; anything else can justify itself with
// //peachyvet:allow rawgo.
func checkRawGo(u *Unit, r *reporter) {
	rel := u.Rel
	if !strings.Contains(rel, "internal/") && !strings.HasPrefix(rel, "internal") {
		return
	}
	for _, allowed := range u.cfg.RawGoAllowed {
		if strings.Contains(rel+"/", allowed+"/") || strings.HasSuffix(rel, allowed) {
			return
		}
	}
	for _, nodes := range u.fileNodes() {
		for _, n := range nodes {
			if g, ok := n.(*ast.GoStmt); ok {
				r.report("rawgo", g.Pos(),
					"raw go statement bypasses the parallel substrates: use par.Pool/par.For (worksharing), cluster.World (SPMD) or locale.System, or annotate //peachyvet:allow rawgo with a reason")
			}
		}
	}
}
