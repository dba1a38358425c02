// Package analysis is peachyvet: a static SPMD/concurrency checker for
// this repository's parallel substrates, built on the stdlib go/ast,
// go/parser and go/types packages (no external analysis framework).
//
// The stock `go vet` knows nothing about the cluster runtime's SPMD
// contract — that every rank must execute the same collective sequence,
// that point-to-point tags must pair up, and that closures handed to
// World.Run execute once per rank concurrently. peachyvet encodes those
// rules, the same hazards MPI correctness tools (MUST, Marmot) check for
// real MPI programs:
//
//	collective — a rank-divergent if or switch whose arms run different
//	            collective sequences (a rank-guarded early return
//	            included), visible without expanding calls
//	sendrecv   — Send with a constant tag that no Recv in the package
//	            could ever match, visible without expanding calls
//	protocol   — the same two defects when only call expansion shows
//	            them, blocking Recvs no Send produces, and collectives
//	            under rank-dependent trip counts
//	useaftersend — a sent or collectively-shared buffer (or an alias of
//	            it) is written before a happens-after sync point; the
//	            in-process transport passes pointers, so the receiver
//	            observes the mutation
//	recvalias  — received data lands in a buffer still in flight, or two
//	            receives land in provably overlapping regions
//	wiresafe   — payload types a network transport could not encode
//	            (channels, funcs, sync types, unexported fields) and
//	            missing/shallow CloneWire implementations
//	capture    — writes to captured outer variables inside World.Run /
//	            pool-worker closures that are not rank-guarded or
//	            rank-indexed (shared-memory leaks across "ranks")
//	lockcopy   — sync.Mutex / sync.WaitGroup (or structs containing them)
//	            copied by value
//	rawgo      — raw `go` statements in internal/ packages that bypass
//	            the sanctioned substrates (internal/par pools,
//	            cluster.World, locale.System)
//
// A finding can be suppressed by a trailing or preceding comment of the
// form `//peachyvet:allow <rule>` (or `//peachyvet:allow all`).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by a rule.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// AllRules lists every rule name in reporting order. The collective,
// sendrecv, protocol and deadlock rules read per-function communication
// summaries propagated over the unit's call graph (see summary.go). The
// first three are views of one pass (rule_protocol.go): collective and
// sendrecv report what each function's own effects show, protocol what
// only call expansion shows.
// The ownership and wire-safety rules (useaftersend, recvalias,
// wiresafe) are likewise interprocedural: they combine the communication
// summaries with per-function mutation summaries (mutation.go) and a
// type-recursive encodability lattice (encodable.go).
// The performance-and-determinism family (hotalloc, rolledcoll, nondet)
// shares the same call graph, summaries and payload facts (perf.go).
var AllRules = []string{"collective", "sendrecv", "protocol", "deadlock",
	"useaftersend", "recvalias", "wiresafe", "hotalloc", "rolledcoll",
	"nondet", "capture", "lockcopy", "rawgo"}

// Config selects which rules run and where rawgo is exempt.
type Config struct {
	// Rules is the set of enabled rule names; nil enables all.
	Rules map[string]bool
	// RawGoAllowed lists slash-separated path fragments of packages that
	// are allowed to spawn raw goroutines (the parallelism substrates
	// themselves). Matched against the unit's directory path.
	RawGoAllowed []string
}

// DefaultConfig enables every rule and exempts the substrate packages —
// the packages whose whole job is implementing parallelism primitives —
// from the rawgo rule.
func DefaultConfig() Config {
	return Config{
		RawGoAllowed: []string{
			"internal/par",
			"internal/cluster",
			"internal/locale",
		},
	}
}

func (c Config) enabled(rule string) bool {
	if c.Rules == nil {
		return true
	}
	return c.Rules[rule]
}

// reporter accumulates findings and applies //peachyvet:allow suppressions.
type reporter struct {
	unit     *Unit
	findings []Finding
}

func (r *reporter) report(rule string, pos token.Pos, format string, args ...any) {
	p := r.unit.Fset.Position(pos)
	if r.unit.allowed(rule, p) {
		return
	}
	r.findings = append(r.findings, Finding{Pos: p, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// rawFinding is a finding of an engine that several rules share. The
// engine runs once per unit, and each rule replays its own findings
// through the reporter, so -rules and //peachyvet:allow act per rule.
type rawFinding struct {
	rule string
	pos  token.Pos
	msg  string
}

func (r *reporter) replay(finds []rawFinding, rule string) {
	for _, f := range finds {
		if f.rule == rule {
			r.report(f.rule, f.pos, "%s", f.msg)
		}
	}
}

type checkFunc func(u *Unit, r *reporter)

var checks = map[string]checkFunc{
	"collective":   checkCollective,
	"sendrecv":     checkSendRecv,
	"protocol":     checkProtocol,
	"deadlock":     checkDeadlock,
	"useaftersend": checkUseAfterSend,
	"recvalias":    checkRecvAlias,
	"wiresafe":     checkWireSafe,
	"hotalloc":     checkHotAlloc,
	"rolledcoll":   checkRolledColl,
	"nondet":       checkNondet,
	"capture":      checkCapture,
	"lockcopy":     checkLockCopy,
	"rawgo":        checkRawGo,
}

// Analyze type-checks one package unit, once, and runs the enabled rules
// over it; every rule sees the types. Load errors
// recorded on the unit (files that failed to parse) are surfaced first,
// as findings with the reserved rule name "load" — they are always on,
// so a broken file fails the gate instead of silently shrinking it.
func Analyze(u *Unit, cfg Config) []Finding {
	r := &reporter{unit: u}
	u.cfg = cfg
	r.findings = append(r.findings, u.LoadErrs...)
	u.ensureTypes()
	for _, name := range AllRules {
		if cfg.enabled(name) {
			checks[name](u, r)
		}
	}
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i].Pos, r.findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return r.findings
}

// allowed reports whether a //peachyvet:allow comment covers (rule, pos):
// on the same line or the line immediately above.
func (u *Unit) allowed(rule string, p token.Position) bool {
	lines := u.allowLines[p.Filename]
	for _, l := range []int{p.Line, p.Line - 1} {
		if rules, ok := lines[l]; ok {
			if rules["all"] || rules[rule] {
				return true
			}
		}
	}
	return false
}

// indexAllows scans a file's comments for //peachyvet:allow directives.
func (u *Unit) indexAllows(file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "peachyvet:allow") {
				continue
			}
			p := u.Fset.Position(c.Pos())
			if u.allowLines[p.Filename] == nil {
				u.allowLines[p.Filename] = map[int]map[string]bool{}
			}
			rules := map[string]bool{}
			for _, r := range strings.Fields(strings.TrimPrefix(text, "peachyvet:allow")) {
				rules[r] = true
			}
			if len(rules) == 0 {
				rules["all"] = true
			}
			u.allowLines[p.Filename][p.Line] = rules
		}
	}
}
