package analysis

import (
	"github.com/sdl-lang/sdl/internal/lang"
)

// runFootprint is the footprint pass: it reports, per transaction, when the
// runtime's planned commit path (locking only the shards that own the
// footprint's buckets, see internal/dataspace) cannot be used, and why. The pass mirrors
// the compiler's footprint.Classify judgment at the AST level:
//
//   - a transaction in a view-restricted process always bypasses footprint
//     planning (a restricted import may consult arbitrary buckets);
//   - a pattern or assertion whose leading field is a wildcard, a query
//     variable, or an expression over query variables is not determined by
//     the issuing environment, so the transaction's footprint cannot be
//     bounded and it falls back to coarse locking.
//
// Everything here is a Note: wide footprints are legal SDL, they just
// serialize. The pass makes the performance cliff visible at vet time
// instead of in a lock-contention profile.
func runFootprint(p *pass) {
	for _, u := range p.units {
		if !p.reachable[u.name] {
			continue
		}
		if u.decl != nil && (len(u.decl.Imports) > 0 || len(u.decl.Exports) > 0) {
			if allRefined(p, u) {
				p.addf(u.decl.Pos, CheckFootprint, Note,
					"process %s restricts its view, but every transaction's leads are ground: the interprocedural refiner re-admits them to footprint planning (see the dataflow check)", u.name)
			} else {
				p.addf(u.decl.Pos, CheckFootprint, Note,
					"process %s restricts its view; its transactions bypass footprint planning and take full-store locks", u.name)
			}
			continue
		}
		for _, ti := range u.txns {
			reportWideLeads(p, ti)
		}
	}
}

// allRefined reports whether the interprocedural refiner re-admits every
// transaction of a view-restricted unit to footprint planning, making the
// blanket "full-store locks" note stale.
func allRefined(p *pass, u *unit) bool {
	if len(u.txns) == 0 {
		return false
	}
	res := p.dataflowResult()
	for _, ti := range u.txns {
		j := res.Judgments[ti.txn]
		if j == nil || !j.Widened {
			return false
		}
	}
	return true
}

// reportWideLeads flags every pattern of ti whose lead is not determined by
// the unit's issuing environment (parameters + lets). One note per
// offending pattern, at the pattern's position.
func reportWideLeads(p *pass, ti *txnInfo) {
	check := func(pat lang.PatternNode, what string) {
		if len(pat.Fields) == 0 {
			return // arity-0: the fixed zero-lead bucket, always plannable
		}
		if leadDetermined(pat.Fields[0]) {
			return
		}
		p.addf(pat.Pos, CheckFootprint, Note,
			"lead of %s %s is not determined by parameters or lets; the transaction's footprint is unbounded and commits take shard-level locks",
			what, abstractPattern(pat, ti.bound).String())
	}
	for _, item := range ti.txn.Items {
		check(item.Pattern, "pattern")
	}
	for _, a := range ti.txn.Actions {
		if as, ok := a.(lang.AssertAction); ok {
			check(as.Pattern, "assertion")
		}
	}
}

// leadDetermined reports whether a leading field is determined by the
// issuing environment: a wildcard never is; an expression is iff it
// references no query variable (bare identifiers are atoms, bound
// identifiers take their runtime value — both determined).
func leadDetermined(f lang.FieldNode) bool {
	ef, ok := f.(lang.ExprField)
	if !ok {
		return false // wildcard lead
	}
	determined := true
	lang.Walk(ef.Expr, func(n lang.Node) bool {
		if _, isVar := n.(*lang.VarNode); isVar {
			determined = false
			return false
		}
		return true
	})
	return determined
}
