package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file builds per-function communication summaries: the ordered
// sequence of communication effects (collectives, point-to-point sends
// and receives, rank-divergent branches, loops) a function executes,
// with calls to unit-local functions spliced in so the interprocedural
// rules (protocol, deadlock) see through helper boundaries. Spliced
// effects carry their call path, so the collective and sendrecv rules
// read the same summaries without them. Tags and peers are go/constant
// values where go/types folds them; one that is a callee parameter stays
// symbolic in the memoized summary and is bound to the caller's constant
// at each splice site — the constant propagation that lets
// `sendResult(c, dst)` match a `Recv(c, src, tagResult)` three functions
// away.

// EffectKind discriminates summary effects.
type EffectKind uint8

const (
	// EffColl is a collective call (Barrier, Bcast, Reduce, ...).
	EffColl EffectKind = iota
	// EffSend is a point-to-point send (non-blocking, eager semantics).
	EffSend
	// EffRecv is a point-to-point receive; Blocking is false for TryRecv.
	EffRecv
	// EffBranch is a conditional with per-arm effect sequences.
	EffBranch
	// EffLoop is a for/range loop around its body effects.
	EffLoop
)

// valueClass classifies a tag or peer operand.
type valueClass uint8

const (
	valUnknown valueClass = iota // dynamically computed
	valConst                     // constant-foldable integer
	valParam                     // a parameter of the summarized function (symbolic)
	valRankDep                   // derived from this rank's id
)

// operand is a symbolic tag or peer value.
type operand struct {
	class valueClass
	val   int    // valConst
	param string // valParam
	// bound marks a valConst that was resolved only by interprocedural
	// parameter binding — a value visible only with call expansion.
	bound bool
}

func (o operand) String() string {
	switch o.class {
	case valConst:
		if o.bound {
			return fmt.Sprintf("const:%d(bound)", o.val)
		}
		return fmt.Sprintf("const:%d", o.val)
	case valParam:
		return "param:" + o.param
	case valRankDep:
		return "rank-dep"
	}
	return "?"
}

// Effect is one node of a communication summary.
type Effect struct {
	Kind     EffectKind
	Op       string  // collective name, or Send/SendRecv/Recv/RecvFrom/TryRecv
	Comm     string  // communicator identifier, best effort ("" unknown)
	Tag      operand // p2p only
	Peer     operand // p2p only: destination for sends, source for receives
	Blocking bool    // EffRecv: false for TryRecv
	// Payload names the summarized function's parameter that flows into
	// the operation's payload argument ("" when the payload is not a bare
	// parameter). EffSend and EffColl only. The ownership rule reads this
	// to see buffers escaping into communication through helper calls.
	Payload string
	Pos     token.Pos
	// Path is the call chain from the summarized function to the effect
	// site: nil for direct effects, ["helper"] for effects inside a
	// called helper, ["helper", "inner"] one level deeper.
	Path []string

	Divergent bool       // EffBranch: the condition compares the rank
	Arms      [][]Effect // EffBranch
	Term      []bool     // EffBranch: arm unconditionally leaves the function
	stmt      ast.Stmt   // EffBranch: the statement, which names the arms

	RankTrips bool     // EffLoop: trip count depends on the rank
	Body      []Effect // EffLoop
}

// pathString renders an effect's call chain for diagnostics ("" direct).
func (e Effect) pathString() string {
	if len(e.Path) == 0 {
		return ""
	}
	return " (via " + strings.Join(e.Path, " → ") + ")"
}

// FuncSummary is the communication summary of one function body.
type FuncSummary struct {
	Name    string
	Effects []Effect
}

// maxSpliceDepth bounds call expansion; deeper chains degrade gracefully
// to "no visible effects" rather than looping.
const maxSpliceDepth = 8

// summarizer builds and memoizes function summaries for one unit.
type summarizer struct {
	u        *Unit
	cg       *callGraph
	cache    map[*ast.FuncDecl]*FuncSummary
	litCache map[*ast.FuncLit]*FuncSummary
	building map[*ast.FuncDecl]bool // recursion cut
}

// summaries returns (building if needed) the unit's summarizer. The cache
// lives on the Unit so every rule that reads summaries shares one build.
func (u *Unit) summaries() *summarizer {
	if u.sums == nil {
		u.sums = &summarizer{
			u:        u,
			cg:       buildCallGraph(u),
			cache:    map[*ast.FuncDecl]*FuncSummary{},
			litCache: map[*ast.FuncLit]*FuncSummary{},
			building: map[*ast.FuncDecl]bool{},
		}
	}
	return u.sums
}

// funcSummary returns the memoized summary of one declaration. Recursive
// back-edges contribute no effects (the cycle is cut, not unrolled).
func (s *summarizer) funcSummary(fd *ast.FuncDecl) *FuncSummary {
	if sum, ok := s.cache[fd]; ok {
		return sum
	}
	if s.building[fd] {
		return &FuncSummary{Name: fd.Name.Name}
	}
	s.building[fd] = true
	sum := &FuncSummary{
		Name:    fd.Name.Name,
		Effects: s.stmtList(fd.Body.List, paramSet(fd), 0),
	}
	delete(s.building, fd)
	s.cache[fd] = sum
	return sum
}

// litSummary summarizes a function literal body (rank bodies handed to
// World.Run, pool workers). Literal parameters are symbolic like
// declaration parameters; summaries are memoized because several rules
// enumerate the same literals.
func (s *summarizer) litSummary(lit *ast.FuncLit) *FuncSummary {
	if sum, ok := s.litCache[lit]; ok {
		return sum
	}
	params := map[string]bool{}
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				params[name.Name] = true
			}
		}
	}
	sum := &FuncSummary{Name: "func literal", Effects: s.stmtList(lit.Body.List, params, 0)}
	s.litCache[lit] = sum
	return sum
}

// paramSet collects a declaration's parameter and receiver names.
func paramSet(fd *ast.FuncDecl) map[string]bool {
	params := map[string]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				params[name.Name] = true
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return params
}

// stmtList walks one statement list in order, emitting effects. Walking
// stops after a statement that unconditionally leaves the function. The
// result is termination-normalized: when a branch has arms that leave the
// function, the effects of the remaining statements are absorbed into the
// fall-through arms, so every arm's sequence fully describes what ranks
// taking it still execute in this frame — the invariant that lets a
// spliced summary treat a callee `return` as "continue in the caller".
func (s *summarizer) stmtList(list []ast.Stmt, params map[string]bool, depth int) []Effect {
	var out []Effect
	for i, stmt := range list {
		effs := s.stmtEffects(stmt, params, depth)
		out = append(out, effs...)
		if stmtTerminates(stmt) {
			break
		}
		if len(effs) > 0 {
			last := &out[len(out)-1]
			if last.Kind == EffBranch && anyTrue(last.Term) {
				if rest := s.stmtList(list[i+1:], params, depth); len(rest) > 0 {
					for j := range last.Arms {
						if !last.Term[j] {
							last.Arms[j] = concatEffects(last.Arms[j], rest)
						}
					}
				}
				return out
			}
		}
	}
	return out
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// stmtTerminates reports whether a single statement unconditionally
// leaves the function (return / panic / os.Exit-style call).
func stmtTerminates(stmt ast.Stmt) bool {
	switch x := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			return isTerminalCall(call)
		}
	}
	return false
}

// stmtEffects emits the effects of one statement.
func (s *summarizer) stmtEffects(stmt ast.Stmt, params map[string]bool, depth int) []Effect {
	switch x := stmt.(type) {
	case *ast.ExprStmt:
		return s.exprEffects(x.X, params, depth)
	case *ast.AssignStmt:
		var out []Effect
		for _, rhs := range x.Rhs {
			out = append(out, s.exprEffects(rhs, params, depth)...)
		}
		return out
	case *ast.ReturnStmt:
		var out []Effect
		for _, r := range x.Results {
			out = append(out, s.exprEffects(r, params, depth)...)
		}
		return out
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			var out []Effect
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						out = append(out, s.exprEffects(v, params, depth)...)
					}
				}
			}
			return out
		}
	case *ast.DeferStmt:
		// Deferred communication runs at function exit; source order is an
		// approximation.
		return s.callEffects(x.Call, params, depth)
	case *ast.IfStmt:
		return s.ifEffects(x, params, depth)
	case *ast.ForStmt:
		var body []Effect
		if x.Init != nil {
			body = append(body, s.stmtEffects(x.Init, params, depth)...)
		}
		body = append(body, s.exprEffects(x.Cond, params, depth)...)
		body = append(body, s.stmtList(x.Body.List, params, depth)...)
		if x.Post != nil {
			body = append(body, s.stmtEffects(x.Post, params, depth)...)
		}
		if len(body) == 0 {
			return nil
		}
		return []Effect{{
			Kind: EffLoop, Pos: x.Pos(), Body: body,
			RankTrips: s.u.mentionsRank(x.Init) || s.u.mentionsRank(x.Cond) || s.u.mentionsRank(x.Post),
		}}
	case *ast.RangeStmt:
		out := s.exprEffects(x.X, params, depth)
		body := s.stmtList(x.Body.List, params, depth)
		if len(body) == 0 {
			return out
		}
		return append(out, Effect{
			Kind: EffLoop, Pos: x.Pos(), Body: body,
			RankTrips: s.u.mentionsRank(x.X),
		})
	case *ast.SwitchStmt:
		return s.switchEffects(x, params, depth)
	case *ast.TypeSwitchStmt:
		var out []Effect
		if x.Init != nil {
			out = append(out, s.stmtEffects(x.Init, params, depth)...)
		}
		out = append(out, s.stmtEffects(x.Assign, params, depth)...)
		var arms [][]Effect
		var term []bool
		hasDefault := false
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				if cc.List == nil {
					hasDefault = true
				}
				arms = append(arms, s.stmtList(cc.Body, params, depth))
				term = append(term, bodyTerminates(cc.Body))
			}
		}
		return append(out, makeBranch(x, false, "", arms, term, hasDefault)...)
	case *ast.SelectStmt:
		var arms [][]Effect
		var term []bool
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				arms = append(arms, s.stmtList(cc.Body, params, depth))
				term = append(term, bodyTerminates(cc.Body))
			}
		}
		return makeBranch(x, false, "", arms, term, true)
	case *ast.BlockStmt:
		return s.stmtList(x.List, params, depth)
	case *ast.LabeledStmt:
		return s.stmtEffects(x.Stmt, params, depth)
	case *ast.GoStmt:
		// A spawned goroutine is not part of this rank's program order.
		return nil
	case *ast.SendStmt:
		return append(s.exprEffects(x.Chan, params, depth), s.exprEffects(x.Value, params, depth)...)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		return nil
	}
	return nil
}

// ifEffects builds a branch effect from an if statement, classifying the
// condition as rank-divergent (ranks take different arms) or uniform
// (every rank takes the same arm). Uniform branches whose arms carry no
// effects vanish; uniform branches with identical arms splice one arm.
func (s *summarizer) ifEffects(ifs *ast.IfStmt, params map[string]bool, depth int) []Effect {
	var out []Effect
	if ifs.Init != nil {
		out = append(out, s.stmtEffects(ifs.Init, params, depth)...)
	}
	out = append(out, s.exprEffects(ifs.Cond, params, depth)...)

	cmps := s.u.rankCond(ifs.Cond)
	divergent := len(cmps) > 0
	comm := ""
	if divergent {
		comm = cmps[0].comm
	}

	thenArm := s.stmtList(ifs.Body.List, params, depth)
	thenTerm := terminates(ifs.Body)
	var elseArm []Effect
	elseTerm := false
	switch e := ifs.Else.(type) {
	case *ast.BlockStmt:
		elseArm = s.stmtList(e.List, params, depth)
		elseTerm = terminates(e)
	case *ast.IfStmt:
		elseArm = s.stmtEffects(e, params, depth)
		elseTerm = allElseTerminates(e)
	}
	out = append(out, makeBranch(ifs, divergent, comm,
		[][]Effect{thenArm, elseArm}, []bool{thenTerm, elseTerm}, true)...)
	return out
}

// switchEffects handles a switch statement; a switch over the rank value
// (or whose case expressions compare the rank) is divergent.
func (s *summarizer) switchEffects(sw *ast.SwitchStmt, params map[string]bool, depth int) []Effect {
	var out []Effect
	if sw.Init != nil {
		out = append(out, s.stmtEffects(sw.Init, params, depth)...)
	}
	out = append(out, s.exprEffects(sw.Tag, params, depth)...)
	divergent := false
	comm := ""
	if sw.Tag != nil {
		if c, ok := s.u.isRankExpr(sw.Tag); ok {
			divergent, comm = true, c
		}
	} else {
		for _, c := range sw.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if cmps := s.u.rankCond(e); len(cmps) > 0 {
						divergent, comm = true, cmps[0].comm
					}
				}
			}
		}
	}
	var arms [][]Effect
	var term []bool
	hasDefault := false
	for _, c := range sw.Body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			if cc.List == nil {
				hasDefault = true
			}
			arms = append(arms, s.stmtList(cc.Body, params, depth))
			term = append(term, bodyTerminates(cc.Body))
		}
	}
	out = append(out, makeBranch(sw, divergent, comm, arms, term, hasDefault)...)
	return out
}

// makeBranch assembles a branch effect. A missing default (or else) adds
// an implicit empty fall-through arm. A branch with no effects anywhere
// vanishes, unless it is rank-divergent and an arm leaves the function:
// that early return splits the ranks, and stmtList moves what the others
// go on to run into their arms. Uniform branches whose arms all agree
// splice the first arm.
func makeBranch(stmt ast.Stmt, divergent bool, comm string, arms [][]Effect, term []bool, exhaustive bool) []Effect {
	if !exhaustive {
		arms = append(arms, nil)
		term = append(term, false)
	}
	any := divergent && anyTrue(term)
	for _, a := range arms {
		if len(a) > 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	if !divergent && !anyTrue(term) {
		allEqual := true
		for _, a := range arms[1:] {
			if !sameEffectShape(arms[0], a) {
				allEqual = false
				break
			}
		}
		if allEqual {
			return arms[0]
		}
	}
	return []Effect{{Kind: EffBranch, Pos: stmt.Pos(), Divergent: divergent, Comm: comm, Arms: arms, Term: term, stmt: stmt}}
}

// earlyReturn returns the one arm a rank-guarded early return leaves
// running: e is a rank-divergent branch whose every other arm leaves the
// function without communicating. The ranks that stay all run that arm,
// so to them it is straight-line code.
func (e Effect) earlyReturn() ([]Effect, bool) {
	if e.Kind != EffBranch || !e.Divergent {
		return nil, false
	}
	var stay []Effect
	n := 0
	for j, arm := range e.Arms {
		switch {
		case !e.Term[j]:
			stay, n = arm, n+1
		case len(arm) > 0:
			return nil, false
		}
	}
	return stay, n == 1
}

// allElseTerminates reports whether every path of an else (possibly an
// else-if chain) terminates, in which case no rank falls through.
func allElseTerminates(e ast.Stmt) bool {
	switch s := e.(type) {
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.IfStmt:
		if !terminates(s.Body) {
			return false
		}
		if s.Else == nil {
			return false
		}
		return allElseTerminates(s.Else)
	}
	return false
}

// sameEffectShape reports whether two effect sequences are structurally
// identical (op, tag, peer, nesting) — used to collapse uniform branches.
func sameEffectShape(a, b []Effect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Op != y.Op || x.Tag != y.Tag || x.Peer != y.Peer {
			return false
		}
		if !sameEffectShape(x.Body, y.Body) {
			return false
		}
		if len(x.Arms) != len(y.Arms) {
			return false
		}
		for j := range x.Arms {
			if !sameEffectShape(x.Arms[j], y.Arms[j]) {
				return false
			}
		}
	}
	return true
}

// bodyTerminates applies the block-termination test to a bare statement
// list (case-clause bodies have no BlockStmt wrapper).
func bodyTerminates(list []ast.Stmt) bool {
	return terminates(&ast.BlockStmt{List: list})
}

// exprEffects emits the effects of every communication call inside an
// expression, in syntactic order, without entering function literals.
func (s *summarizer) exprEffects(e ast.Expr, params map[string]bool, depth int) []Effect {
	if e == nil {
		return nil
	}
	var out []Effect
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			out = append(out, s.callEffects(x, params, depth)...)
			return false // callEffects descends into arguments itself
		}
		return true
	})
	return out
}

// callEffects classifies one call: a collective, a point-to-point
// operation, or a unit-local function whose summary is spliced in with
// the caller's argument bindings. Argument subexpressions are scanned
// first — their communication happens before the call executes.
func (s *summarizer) callEffects(call *ast.CallExpr, params map[string]bool, depth int) []Effect {
	var out []Effect
	for _, a := range call.Args {
		out = append(out, s.exprEffects(a, params, depth)...)
	}
	if op, ok := s.u.commOp(call); ok {
		eff := Effect{Op: op.name, Comm: identName(op.comm), Pos: call.Pos(), Payload: paramName(op.payload, params)}
		if op.kind != opColl {
			eff.Peer, eff.Tag = s.classify(op.peer, params), s.classify(op.tag, params)
		}
		switch op.kind {
		case opColl:
			eff.Kind = EffColl
		case opSend:
			eff.Kind = EffSend
		case opRecv:
			eff.Kind, eff.Blocking = EffRecv, op.name != "TryRecv"
		case opSendRecv:
			// A paired exchange posts the send, then blocks on the
			// matching receive with the same tag.
			recv := eff
			recv.Kind, recv.Blocking, recv.Payload = EffRecv, true, ""
			eff.Kind = EffSend
			out = append(out, eff)
			eff = recv
		}
		return append(out, eff)
	}
	callee := s.cg.resolve(call)
	if callee == nil || depth >= maxSpliceDepth {
		return out
	}
	calleeSum := s.spliceSummary(callee, depth)
	if len(calleeSum) == 0 {
		return out
	}
	bind, commBind := s.bindings(call, callee, params)
	out = append(out, substEffects(calleeSum, callee.Name.Name, bind, commBind)...)
	return out
}

// spliceSummary returns a callee's effects built at the given depth,
// cutting recursion like funcSummary does.
func (s *summarizer) spliceSummary(fd *ast.FuncDecl, depth int) []Effect {
	if sum, ok := s.cache[fd]; ok {
		return sum.Effects
	}
	if s.building[fd] {
		return nil
	}
	s.building[fd] = true
	effects := s.stmtList(fd.Body.List, paramSet(fd), depth+1)
	delete(s.building, fd)
	s.cache[fd] = &FuncSummary{Name: fd.Name.Name, Effects: effects}
	return effects
}

// bindings maps a callee's parameter names to operands classified in the
// caller's context, and communicator parameter names to caller idents.
func (s *summarizer) bindings(call *ast.CallExpr, callee *ast.FuncDecl, params map[string]bool) (map[string]operand, map[string]string) {
	bind := map[string]operand{}
	commBind := map[string]string{}
	record := func(name string, arg ast.Expr) {
		op := s.classify(arg, params)
		op.bound = op.class == valConst
		bind[name] = op
		if id, ok := arg.(*ast.Ident); ok {
			commBind[name] = id.Name
		}
	}
	// Receiver of a method call binds to the selector base.
	if callee.Recv != nil && len(callee.Recv.List) > 0 && len(callee.Recv.List[0].Names) > 0 {
		if sel, ok := unwrapCallFun(call).(*ast.SelectorExpr); ok {
			record(callee.Recv.List[0].Names[0].Name, sel.X)
		}
	}
	i := 0
	for _, field := range callee.Type.Params.List {
		for _, name := range field.Names {
			if i < len(call.Args) {
				record(name.Name, call.Args[i])
			}
			i++
		}
	}
	return bind, commBind
}

// unwrapCallFun strips instantiations and parens off a call's Fun.
func unwrapCallFun(call *ast.CallExpr) ast.Expr {
	fun := call.Fun
	for {
		switch x := fun.(type) {
		case *ast.IndexExpr:
			fun = x.X
		case *ast.IndexListExpr:
			fun = x.X
		case *ast.ParenExpr:
			fun = x.X
		default:
			return fun
		}
	}
}

// substEffects deep-copies spliced effects, substituting symbolic
// parameter operands with the caller's bindings and prefixing call paths.
// Arm termination flags are cleared: a `return` inside the callee only
// leaves the callee, and the termination-normalized summary already moved
// the callee's own remaining effects into the fall-through arms, so in
// the caller's frame every arm simply continues with the caller's
// continuation.
//
// A callee's rank-guarded early return is spliced as the arm it leaves
// running, so callers read the helper as straight-line code; the callee's
// own summary keeps the branch, and the split is reported there.
func substEffects(effects []Effect, calleeName string, bind map[string]operand, commBind map[string]string) []Effect {
	out := make([]Effect, 0, len(effects))
	for _, e := range effects {
		if stay, ok := e.earlyReturn(); ok {
			out = append(out, substEffects(stay, calleeName, bind, commBind)...)
			continue
		}
		c := e
		c.Path = append([]string{calleeName}, e.Path...)
		c.Tag = substOperand(e.Tag, bind)
		c.Peer = substOperand(e.Peer, bind)
		if e.Payload != "" {
			// The payload param maps to whatever caller identifier was
			// passed there; non-identifier arguments lose the fact.
			c.Payload = commBind[e.Payload]
		}
		if mapped, ok := commBind[e.Comm]; ok {
			c.Comm = mapped
		} else if e.Comm != "" {
			c.Comm = "" // a callee local: unknown in the caller's frame
		}
		if e.Body != nil {
			c.Body = substEffects(e.Body, calleeName, bind, commBind)
		}
		if e.Arms != nil {
			c.Arms = make([][]Effect, len(e.Arms))
			for i, arm := range e.Arms {
				c.Arms[i] = substEffects(arm, calleeName, bind, commBind)
			}
			c.Term = make([]bool, len(e.Term))
		}
		out = append(out, c)
	}
	return out
}

func substOperand(o operand, bind map[string]operand) operand {
	if o.class != valParam {
		return o
	}
	if b, ok := bind[o.param]; ok {
		return b
	}
	return operand{class: valUnknown}
}

// classify determines what a tag/peer expression is in the current
// function's frame: a foldable constant, one of the function's own
// parameters (symbolic, bindable by callers), rank-derived, or unknown.
func (s *summarizer) classify(e ast.Expr, params map[string]bool) operand {
	if v, ok := s.u.constInt(e); ok {
		return operand{class: valConst, val: v}
	}
	if id, ok := e.(*ast.Ident); ok && params[id.Name] {
		return operand{class: valParam, param: id.Name}
	}
	if s.u.mentionsRank(e) {
		return operand{class: valRankDep}
	}
	return operand{class: valUnknown}
}

// mentionsRank reports whether any subexpression denotes this rank's id.
func (u *Unit) mentionsRank(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if e, ok := x.(ast.Expr); ok {
			if _, isRank := u.isRankExpr(e); isRank {
				found = true
			}
		}
		return !found
	})
	return found
}

// paramName returns the name of e when it is a bare identifier naming one
// of the current function's parameters, else "".
func paramName(e ast.Expr, params map[string]bool) string {
	if id, ok := e.(*ast.Ident); ok && params[id.Name] {
		return id.Name
	}
	return ""
}

// FormatEffects renders a summary compactly for golden tests and debug
// output:
//
//	Barrier; Send[t=7 d=rank]; branch(rank){[Bcast] []}; loop(rank-trips){Reduce}
func FormatEffects(effects []Effect) string {
	var parts []string
	for _, e := range effects {
		parts = append(parts, formatEffect(e))
	}
	return strings.Join(parts, "; ")
}

func formatEffect(e Effect) string {
	switch e.Kind {
	case EffColl:
		return e.Op
	case EffSend, EffRecv:
		var attrs []string
		attrs = append(attrs, "t="+formatOperand(e.Tag))
		if e.Kind == EffSend {
			attrs = append(attrs, "d="+formatOperand(e.Peer))
		} else {
			attrs = append(attrs, "s="+formatOperand(e.Peer))
		}
		op := e.Op
		if len(e.Path) > 0 {
			op += "@" + strings.Join(e.Path, "→")
		}
		return op + "[" + strings.Join(attrs, " ") + "]"
	case EffBranch:
		kind := "uniform"
		if e.Divergent {
			kind = "rank"
		}
		var arms []string
		for _, a := range e.Arms {
			arms = append(arms, "["+FormatEffects(a)+"]")
		}
		return "branch(" + kind + "){" + strings.Join(arms, " ") + "}"
	case EffLoop:
		kind := "loop"
		if e.RankTrips {
			kind = "loop(rank-trips)"
		}
		return kind + "{" + FormatEffects(e.Body) + "}"
	}
	return "?"
}

func formatOperand(o operand) string {
	switch o.class {
	case valConst:
		return fmt.Sprintf("%d", o.val)
	case valParam:
		return "$" + o.param
	case valRankDep:
		return "rank"
	}
	return "?"
}

// SummarizeUnit builds summaries for every declaration in the unit,
// sorted by name — the entry point the golden-summary tests use. Like
// Analyze, it type-checks the unit first: commOp needs the types.
func SummarizeUnit(u *Unit) []*FuncSummary {
	u.ensureTypes()
	s := u.summaries()
	var out []*FuncSummary
	for _, fd := range s.cg.decls {
		out = append(out, s.funcSummary(fd))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
