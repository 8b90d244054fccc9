// Package blocking implements the §6.1 blocking-bug detector for the
// non-double-lock shapes the study attributes most blocking bugs to:
// channel hold-and-wait deadlocks, receives whose every sender half is
// gone, Condvar waits with no reachable (unconditional) signaller, and
// Once initializers that re-enter their own cell.
//
// The detector builds a wait-for relation between blocking operations and
// the resources that would unblock them. Nodes are canonical resource
// paths — channel endpoints, condvars and Once cells named in the same
// path language the lock detectors use ("self.client", "queue",
// "static CONFIG") and qualified by impl type or owning function so
// facts from different functions compare. Edges come from two sources:
// the locks held at each blocking operation (reusing the double-lock
// detector's guard tracking), and the operation's own resource. A report
// is a cycle (the receiver holds the lock its sender needs; an
// initializer waits on the Once it is initializing) or an orphaned wait
// (a recv or Condvar::wait whose wake-up edge provably never fires).
//
// Like the race detector's accesses, the operations are summarized
// bottom-up over the call graph by doublelock's lockset-annotated event
// summary, so a recv buried in a helper still reports against the caller
// that holds the lock.
package blocking

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"rustprobe/internal/cfg"
	"rustprobe/internal/dataflow"
	"rustprobe/internal/detect"
	"rustprobe/internal/detect/alias"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/summary"
)

// Detector is the blocking-bug detector.
type Detector struct{}

// New returns the detector with default configuration.
func New() *Detector { return &Detector{} }

// Name implements detect.Detector.
func (*Detector) Name() string { return "blocking" }

type opKind int

const (
	opRecv opKind = iota
	opSend
	opOnce
	opWait
	opNotify
)

func (k opKind) String() string {
	switch k {
	case opRecv:
		return "recv"
	case opSend:
		return "send"
	case opWait:
		return "wait"
	case opNotify:
		return "notify"
	default:
		return "call_once"
	}
}

// event is one blocking-relevant operation, expressed in the namespace of
// the function whose summary holds it: a lockset-annotated event whose
// Path is the canonical resource (channel endpoint, condvar or Once
// cell) and whose Fn literally performs the operation.
type event = doublelock.Event[op]

// op is the blocking detector's event payload.
type op struct {
	Kind opKind
	// LocalProv marks endpoints derived from a channel constructor that
	// is visible in the recording function; such endpoints are excluded
	// from the same-impl-type pairing heuristic.
	LocalProv bool
	// Guaranteed marks an operation that executes on every entry→return
	// path of every function on the summarized call chain down to the
	// op. ANDs under merge.
	Guaranteed bool
	// After holds, for send ops, the channels whose recv must complete
	// on every path before the send can execute — the dependency edge
	// the all-ends-waiting rule follows. Shrinks under merge like Locks.
	After map[string]bool
}

// step carries a callee's op through call site cs: it is guaranteed only
// if the call is, and its After channels translate into the caller.
func (o op) step(cs callSite, translate func(string) string) op {
	o.Guaranteed = o.Guaranteed && cs.guaranteed
	if len(o.After) > 0 {
		after := make(map[string]bool, len(o.After))
		for a := range o.After {
			if t := translate(a); t != "" {
				after[t] = true
			}
		}
		o.After = after
	}
	return o
}

// merge joins one op reached along two paths: it is guaranteed only if
// both paths guarantee it, and only recvs that must precede it on both
// paths stay in After.
func (o op) merge(other op) op {
	o.Guaranteed = o.Guaranteed && other.Guaranteed
	if len(o.After) > 0 {
		after := map[string]bool{}
		for c := range o.After {
			if other.After[c] {
				after[c] = true
			}
		}
		o.After = after
	}
	return o
}

func (o op) equal(other op) bool {
	if o.Guaranteed != other.Guaranteed || len(o.After) != len(other.After) {
		return false
	}
	for c := range o.After {
		if !other.After[c] {
			return false
		}
	}
	return true
}

// resSummary is a function's event set; the inter-procedural fixpoint
// grows the key set and shrinks locksets, both monotone.
type resSummary = doublelock.Events[opKind, op]

type waitSite struct {
	cv   string
	span source.Span
}

type notifySite struct {
	cv         string
	span       source.Span
	guaranteed bool // the notify lies on every entry→return path
}

type onceSite struct {
	once    string
	closure string // closure body name passed as initializer, "" if opaque
	// closureParam is the parameter index the initializer came in
	// through when it is an unresolved parameter of the enclosing
	// function (run_init(once, f) { once.call_once(f) }), -1 otherwise.
	// Callers resolve it against their own closure bindings.
	closureParam int
	span         source.Span
}

type callSite struct {
	doublelock.CallSite
	// argClosures names, per argument, the locally-defined closure body
	// the argument carries ("" if it is not a closure binding).
	argClosures []string
	span        source.Span
	// guaranteed marks a call site on every entry→return path.
	guaranteed bool
}

// spawnSite is a thread::spawn whose closure body is resolved.
type spawnSite struct {
	closure string
	span    source.Span
}

// chanProv tracks one visible channel construction: which locals alias
// its sender/receiver halves and whether any sender stays live.
type chanProv struct {
	span      source.Span
	tuple     map[mir.LocalID]bool
	senders   map[mir.LocalID]bool
	receivers map[mir.LocalID]bool
}

type funcInfo struct {
	name     string
	body     *mir.Body
	res      *alias.Resolver
	own      []*event // recv/send/once/wait/notify events in this body
	calls    []callSite
	spawns   []spawnSite
	waits    []waitSite
	notifies []notifySite
	onces    []onceSite
	chans    []*chanProv
	captures map[string]bool
	params   map[string]bool
	// orphans holds the intra-procedural orphaned-receive findings.
	orphans []detect.Finding
}

// Run implements detect.Detector. Each function's share of the pairing
// rules is its index (DerivedAll kind blocking.index); Run pairs the
// indexes in Graph.Names() order, rule by rule, so the first report of
// a span is the one a rule earlier in the order makes.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	sums := doublelock.SummarizeEvents(ctx, "blocking.summary", &doublelock.EventProblem[opKind, op, callSite]{
		Facts: func(fn string) ([]*event, []callSite) {
			info := infoOf(ctx, fn)
			return info.own, info.calls
		},
		ID:    func(o op) opKind { return o.Kind },
		Step:  op.step,
		Merge: op.merge,
		Equal: op.equal,
	})
	idxs := detect.DerivedAll(ctx, "blocking.index", sums, func(fn string) (*index, []string) {
		return indexOf(ctx, fn, sums.Summaries)
	})

	var out []detect.Finding
	reported := map[int]bool{}
	emit := func(f detect.Finding) {
		if reported[f.Span.Start] {
			return
		}
		reported[f.Span.Start] = true
		out = append(out, f)
	}
	emitAll := func(findings func(*index) []detect.Finding) {
		for _, x := range idxs {
			for _, f := range findings(x) {
				emit(f)
			}
		}
	}

	// Orphaned receives first: "the sender is gone" is the more precise
	// diagnosis for a recv site than any lock-cycle pairing.
	emitAll(func(x *index) []detect.Finding { return x.orphans })
	channelCycles(ctx, idxs, emit)
	emitAll(func(x *index) []detect.Finding { return x.allEnds })
	lostSignals(ctx, idxs, emit)
	emitAll(func(x *index) []detect.Finding { return x.reentries })
	emitAll(func(x *index) []detect.Finding { return x.paramReentries })

	detect.SortFindings(out)
	return out
}

// infoOf returns (computing once per Context) the blocking facts of
// function fn, or nil when fn has no body.
func infoOf(ctx *detect.Context, fn string) *funcInfo {
	if _, ok := ctx.Bodies[fn]; !ok {
		return nil
	}
	return detect.Shared(ctx, "blocking.info", fn, func() *funcInfo { return extract(ctx, fn) })
}

// index is one function's share of the pairing rules, derived from its
// summary: its events sorted and qualified once, and the findings of the
// rules that read only the function and the closures it spawns or hands
// to call_once.
type index struct {
	orphans []detect.Finding // the no-live-sender rule's, from funcInfo

	sends []qsend // every send event
	recvs []qrecv // the recv events that hold a lock

	// The lost-signal rule's notifies and waits: the body's own, then
	// the ones its summary carries from callees with the condvar
	// resolved at this level.
	notifies, propagatedNotifies []qnotify
	waits, propagatedWaits       []qwait

	allEnds                   []detect.Finding
	reentries, paramReentries []detect.Finding
}

// qsend is a send event with its channel and held locks qualified.
type qsend struct {
	chanPath string
	owner    string // impl type of the summary's function
	fn       string
	span     source.Span
	locks    map[string]bool
	local    bool
}

// qrecv is a recv event that holds locks, with its channel qualified.
type qrecv struct {
	ev    *event
	qchan string
	owner string
	locks []qlock // sorted by qualified id
}

// qlock is a held lock's qualified id and the recv's own spelling of it.
type qlock struct{ qualified, spelling string }

type qnotify struct {
	q          string // qualified condvar
	fn         string
	span       source.Span
	guaranteed bool
}

// qwait is a wait reported against holder, the function whose index
// holds it, performed by waiter.
type qwait struct {
	q      string // qualified condvar
	holder string
	waiter string
	cv     string
	span   source.Span
}

// indexOf builds function name's index from its summary and those of
// the closures its rules read, which it returns as the index's deps.
func indexOf(ctx *detect.Context, name string, sums map[string]resSummary) (*index, []string) {
	info := infoOf(ctx, name)
	x := index{orphans: info.orphans}
	owner := implTypeOf(name)
	// unresolved reports a condvar handed in from outside (parameter or
	// closure capture): it is judged at a caller that can name it.
	unresolved := func(cv string) bool {
		root := alias.Root(cv)
		return root != "self" && (info.params[root] || info.captures[root])
	}
	for _, n := range info.notifies {
		x.notifies = append(x.notifies, qnotify{q: qualify(name, n.cv), fn: name, span: n.span, guaranteed: n.guaranteed})
	}
	for _, w := range info.waits {
		if !unresolved(w.cv) {
			x.waits = append(x.waits, qwait{q: qualify(name, w.cv), holder: name, waiter: name, cv: w.cv, span: w.span})
		}
	}
	for _, e := range sortedEvents(ctx.Fset, sums[name]) {
		switch e.Data.Kind {
		case opSend:
			qs := qsend{
				chanPath: qualify(name, e.Path),
				owner:    owner,
				fn:       e.Fn,
				span:     e.Span,
				local:    e.Data.LocalProv,
			}
			if len(e.Locks) > 0 {
				qs.locks = make(map[string]bool, len(e.Locks))
			}
			for id := range e.Locks {
				qs.locks[qualify(name, id)] = true
			}
			x.sends = append(x.sends, qs)
		case opRecv:
			if len(e.Locks) == 0 {
				continue
			}
			r := qrecv{ev: e, qchan: qualify(name, e.Path), owner: owner}
			for id := range e.Locks {
				r.locks = append(r.locks, qlock{qualify(name, id), id})
			}
			sort.Slice(r.locks, func(i, j int) bool {
				if r.locks[i].qualified != r.locks[j].qualified {
					return r.locks[i].qualified < r.locks[j].qualified
				}
				return r.locks[i].spelling < r.locks[j].spelling
			})
			x.recvs = append(x.recvs, r)
		case opNotify:
			// A notify on a condvar parameter is a notify on whatever the
			// caller passed in.
			if e.Fn != name && !unresolved(e.Path) {
				x.propagatedNotifies = append(x.propagatedNotifies, qnotify{q: qualify(name, e.Path), fn: e.Fn, span: e.Span, guaranteed: e.Data.Guaranteed})
			}
		case opWait:
			// The identity never resolved: escape = silence.
			if e.Fn != name && !unresolved(e.Path) {
				x.propagatedWaits = append(x.propagatedWaits, qwait{q: qualify(name, e.Path), holder: name, waiter: e.Fn, cv: e.Path, span: e.Span})
			}
		}
	}
	var deps []string
	x.allEnds = allEndsWaiting(ctx, name, info, sums, &deps)
	x.reentries, x.paramReentries = onceReentry(ctx, name, info, sums, &deps)
	if x.empty() {
		return noIndex, deps
	}
	kept := x // only a non-empty index leaves the stack
	return &kept, deps
}

// noIndex is the index of every function with no share in the rules.
var noIndex = &index{}

func (x *index) empty() bool {
	return len(x.orphans)+len(x.sends)+len(x.recvs)+len(x.notifies)+len(x.propagatedNotifies)+
		len(x.waits)+len(x.propagatedWaits)+len(x.allEnds)+len(x.reentries)+len(x.paramReentries) == 0
}

// extract collects the per-function blocking facts, shared through the
// Context as kind blocking.info.
func extract(ctx *detect.Context, name string) *funcInfo {
	body := ctx.Bodies[name]
	res := alias.For(ctx, name)
	g := res.Locks().CFG
	info := &funcInfo{
		name:     name,
		body:     body,
		res:      res,
		captures: map[string]bool{},
		params:   map[string]bool{},
	}
	for _, c := range body.Captures {
		info.captures[c] = true
	}
	for _, p := range mir.ParamNames(body) {
		if p != "" {
			info.params[p] = true
		}
	}
	closureOf := mir.ClosureLocals(body)
	info.chans = channelProvenance(body)
	endpoint := map[mir.LocalID]bool{}
	for _, ch := range info.chans {
		for l := range ch.senders {
			endpoint[l] = true
		}
		for l := range ch.receivers {
			endpoint[l] = true
		}
	}
	localProv := func(path string) bool {
		l, ok := res.Local(alias.Root(path))
		return ok && endpoint[l]
	}

	valid := func(p string) bool { return p != "" && summary.Depth(p) <= summary.MaxPathDepth }
	afterAt := mustRecv(body, g, res)

	for _, blk := range body.Blocks {
		if !g.Reachable(blk.ID) {
			continue
		}
		c, ok := blk.Term.(mir.Call)
		if !ok {
			continue
		}
		// own records an operation this body performs, with the locks held
		// at it.
		own := func(p string, o op) {
			info.own = append(info.own, &event{
				Path: p, Fn: name, Span: c.Span,
				Locks: res.HeldAt(blk.ID, len(blk.Stmts)), Data: o,
			})
		}
		switch c.Intrinsic {
		case mir.IntrinsicChanRecv, mir.IntrinsicChanSend:
			p := res.CanonPath(c.RecvPath)
			if c.RecvPath == "" || !valid(p) {
				continue
			}
			o := op{Kind: opRecv, LocalProv: localProv(p), Guaranteed: unavoidable(body, g, blk.ID)}
			if c.Intrinsic == mir.IntrinsicChanSend {
				o.Kind = opSend
				o.After = afterAt(blk.ID)
			}
			own(p, o)
			continue
		case mir.IntrinsicCondvarWait:
			if p := res.CanonPath(c.RecvPath); c.RecvPath != "" && valid(p) {
				info.waits = append(info.waits, waitSite{cv: p, span: c.Span})
				own(p, op{Kind: opWait, Guaranteed: unavoidable(body, g, blk.ID)})
			}
			continue
		case mir.IntrinsicSpawn:
			for _, a := range c.Args {
				if pl, ok := mir.OperandPlace(a); ok && pl.IsLocal() && len(pl.Proj) == 0 {
					if cn, isClosure := closureOf[pl.Local]; isClosure {
						info.spawns = append(info.spawns, spawnSite{closure: cn, span: c.Span})
						break
					}
				}
			}
			continue
		case mir.IntrinsicNone:
			switch mir.MethodName(c.Callee) {
			case "notify_one", "notify_all":
				if p := res.CanonPath(c.RecvPath); c.RecvPath != "" && valid(p) {
					guaranteed := unavoidable(body, g, blk.ID)
					info.notifies = append(info.notifies, notifySite{
						cv:         p,
						span:       c.Span,
						guaranteed: guaranteed,
					})
					own(p, op{Kind: opNotify, Guaranteed: guaranteed})
					continue
				}
			case "call_once":
				if p := res.CanonPath(c.RecvPath); c.RecvPath != "" && valid(p) {
					site := onceSite{once: p, span: c.Span, closureParam: -1}
					for _, a := range c.Args[1:] {
						if pl, ok := mir.OperandPlace(a); ok && pl.IsLocal() {
							if cn, isClosure := closureOf[pl.Local]; isClosure {
								site.closure = cn
								break
							}
							if len(pl.Proj) == 0 && int(pl.Local) >= 1 && int(pl.Local) <= body.ArgCount {
								site.closureParam = int(pl.Local) - 1
								break
							}
						}
					}
					info.onces = append(info.onces, site)
					own(p, op{Kind: opOnce})
					continue
				}
			}
		}
		callee := ctx.Callee(c)
		if callee == "" {
			continue
		}
		cs := callSite{
			CallSite:   doublelock.CallSite{Callee: callee, At: blk.ID, Held: res.HeldAt(blk.ID, len(blk.Stmts))},
			span:       c.Span,
			guaranteed: unavoidable(body, g, blk.ID),
		}
		for _, a := range c.Args {
			p := ""
			cn := ""
			if pl, ok := mir.OperandPlace(a); ok {
				p = res.ValuePath(pl)
				if pl.IsLocal() && len(pl.Proj) == 0 {
					cn = closureOf[pl.Local]
				}
			}
			cs.ArgPaths = append(cs.ArgPaths, p)
			cs.argClosures = append(cs.argClosures, cn)
		}
		info.calls = append(info.calls, cs)
	}
	collectOrphans(ctx, info)
	return info
}

// mustRecv returns, per block, the canonical channel paths whose recv has
// completed on every path reaching the block's terminator — the
// must-precede relation behind send events' After sets — or nil when
// there are none. It runs the complementary may-analysis: bit i means
// channel i may still be unreceived, set at entry, cleared by its recv
// terminator, joined by union.
func mustRecv(body *mir.Body, g *cfg.Graph, res *alias.Resolver) func(mir.BlockID) map[string]bool {
	var chans []string
	bit := map[string]int{}
	recvBit := map[mir.BlockID]int{}
	for _, blk := range body.Blocks {
		if c, ok := blk.Term.(mir.Call); ok && c.Intrinsic == mir.IntrinsicChanRecv && c.RecvPath != "" {
			if p := res.CanonPath(c.RecvPath); p != "" && summary.Depth(p) <= summary.MaxPathDepth {
				i, seen := bit[p]
				if !seen {
					i = len(chans)
					bit[p] = i
					chans = append(chans, p)
				}
				recvBit[blk.ID] = i
			}
		}
	}
	if len(chans) == 0 {
		return func(mir.BlockID) map[string]bool { return nil }
	}
	unreceived := dataflow.Forward(g, &dataflow.Problem{
		Bits: len(chans),
		Entry: func(state dataflow.BitSet) {
			for i := range chans {
				state.Set(i)
			}
		},
		TransferTerm: func(state dataflow.BitSet, b mir.BlockID, _ mir.Terminator) {
			if i, ok := recvBit[b]; ok {
				state.Clear(i)
			}
		},
	})
	return func(b mir.BlockID) map[string]bool {
		var out map[string]bool
		for i, p := range chans {
			if !unreceived.In[b].Has(i) {
				if out == nil {
					out = map[string]bool{}
				}
				out[p] = true
			}
		}
		return out
	}
}

// qualify renders a function-namespace path as a program-wide resource
// id: statics stand alone, self-rooted paths attach to the impl type, and
// everything else attaches to the owning function.
func qualify(owner, path string) string {
	if strings.HasPrefix(path, "static ") {
		return path
	}
	path = summary.NormalizePath(path)
	if path == "self" || strings.HasPrefix(path, "self.") || strings.HasPrefix(path, "self[") {
		if t := implTypeOf(owner); t != "" {
			return t + "::" + path
		}
	}
	return owner + "::" + path
}

// implTypeOf extracts the impl type from a qualified function name,
// looking through closure suffixes: "Miner::seal::closure#0" → "Miner".
func implTypeOf(fn string) string {
	for {
		i := strings.LastIndex(fn, "::")
		if i < 0 {
			return ""
		}
		if strings.HasPrefix(fn[i+2:], "closure#") {
			fn = fn[:i]
			continue
		}
		return fn[:i]
	}
}

// sortedEvents flattens a summary into a deterministic slice: by source
// position (FileSet.Compare), then path, then kind.
func sortedEvents(fset *source.FileSet, s resSummary) []*event {
	out := make([]*event, 0, len(s))
	for _, e := range s {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := fset.Compare(out[i].Span.Start, out[j].Span.Start); c != 0 {
			return c < 0
		}
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Data.Kind < out[j].Data.Kind
	})
	return out
}

// channelCycles is the hold-and-wait rule: a recv that blocks while
// holding a lock some send needs first is a two-thread wait cycle —
// the receiver waits for the message, the sender waits for the lock.
func channelCycles(ctx *detect.Context, idxs []*index, emit func(detect.Finding)) {
	for _, x := range idxs {
		for _, r := range x.recvs {
			e := r.ev
		pairing:
			for _, y := range idxs {
				for _, s := range y.sends {
					if s.fn == e.Fn {
						continue
					}
					// The endpoints must plausibly be the same channel:
					// identical resource id, or two channel fields of the
					// same type (a pipe pair like to_paint/from_paint).
					if s.chanPath != r.qchan &&
						(r.owner == "" || s.owner != r.owner || e.Data.LocalProv || s.local) {
						continue
					}
					i := slices.IndexFunc(r.locks, func(l qlock) bool { return s.locks[l.qualified] })
					if i < 0 {
						continue
					}
					common := r.locks[i]
					emit(detect.Finding{
						Kind:     detect.KindBlocking,
						Severity: detect.SeverityError,
						Function: e.Fn,
						Span:     e.Span,
						Message: fmt.Sprintf("blocking recv() on %q while holding %q, which %s must acquire before it can send",
							e.Path, common.spelling, s.fn),
						Notes: []string{
							fmt.Sprintf("receiver: recv at %s holding %s", ctx.Fset.Position(e.Span.Start), doublelock.LocksString(e.Locks)),
							fmt.Sprintf("sender: %s sends on %q at %s only after acquiring %q", s.fn, s.chanPath, ctx.Fset.Position(s.span.Start), common.qualified),
							"hold-and-wait cycle: with these two threads interleaved, neither the message nor the lock can ever be released",
						},
					})
					break pairing
				}
			}
		}
	}
}

// collectOrphans is the no-live-sender rule, intra-procedural over
// visible channel constructions: if every alias of the sender half is
// only ever defined and dropped — never sent on, stored, captured, or
// passed on — the paired recv can never complete. The findings are part
// of the funcInfo, so a round that inherits it does not rescan the body.
func collectOrphans(ctx *detect.Context, info *funcInfo) {
	emit := func(f detect.Finding) { info.orphans = append(info.orphans, f) }
	body := info.body
	for _, ch := range info.chans {
		live := false
		dropped := false
		var dropSpan source.Span
		var recvs []source.Span
		for _, blk := range body.Blocks {
			for _, st := range blk.Stmts {
				as, ok := st.(mir.Assign)
				if !ok {
					continue
				}
				if isAliasMove(as, ch) {
					continue
				}
				forEachRvaluePlace(as.Rvalue, func(pl mir.Place) {
					if len(pl.Proj) == 0 && ch.senders[pl.Local] {
						live = true
					}
				})
			}
			switch t := blk.Term.(type) {
			case mir.Drop:
				if len(t.Place.Proj) == 0 && ch.senders[t.Place.Local] {
					dropped = true
					dropSpan = t.Span
				}
			case mir.SwitchInt:
				if pl, ok := mir.OperandPlace(t.Disc); ok && len(pl.Proj) == 0 && ch.senders[pl.Local] {
					live = true
				}
			case mir.Call:
				if t.Intrinsic == mir.IntrinsicChanRecv {
					if pl, ok := firstArgPlace(t); ok && len(pl.Proj) == 0 && ch.receivers[pl.Local] {
						recvs = append(recvs, t.Span)
					}
					continue
				}
				if t.Intrinsic == mir.IntrinsicDrop {
					if pl, ok := firstArgPlace(t); ok && len(pl.Proj) == 0 && ch.senders[pl.Local] {
						dropped = true
						dropSpan = t.Span
						continue
					}
				}
				if t.Intrinsic == mir.IntrinsicClone && t.Dest.IsLocal() && ch.senders[t.Dest.Local] {
					continue // recognized alias clone
				}
				for _, a := range t.Args {
					if pl, ok := mir.OperandPlace(a); ok && len(pl.Proj) == 0 && ch.senders[pl.Local] {
						live = true
					}
				}
			}
		}
		if live || len(recvs) == 0 {
			continue
		}
		why := "the sender half is never used and is dropped without sending"
		notes := []string{
			fmt.Sprintf("channel created at %s", ctx.Fset.Position(ch.span.Start)),
		}
		if dropped {
			notes = append(notes, fmt.Sprintf("last sender half dropped at %s", ctx.Fset.Position(dropSpan.Start)))
		} else {
			why = "no sender half is ever used"
			notes = append(notes, "no alias of the sender half is sent on, stored, or moved to another thread")
		}
		notes = append(notes, "recv() on a channel with no live sender blocks forever (or returns RecvError, which unwrap turns into a panic)")
		emit(detect.Finding{
			Kind:     detect.KindBlocking,
			Severity: detect.SeverityError,
			Function: info.name,
			Span:     recvs[0],
			Message:  fmt.Sprintf("recv() can never complete: %s", why),
			Notes:    notes,
		})
	}
}

// isAliasMove reports whether an assignment only shuffles a tracked
// endpoint between tracked aliases (tuple projection or endpoint move).
func isAliasMove(as mir.Assign, ch *chanProv) bool {
	if !as.Place.IsLocal() {
		return false
	}
	u, ok := as.Rvalue.(mir.Use)
	if !ok {
		return false
	}
	pl, ok := mir.OperandPlace(u.X)
	if !ok {
		return false
	}
	if ch.tuple[pl.Local] {
		return true
	}
	if len(pl.Proj) == 0 && (ch.senders[pl.Local] || ch.receivers[pl.Local]) {
		dst := as.Place.Local
		return ch.senders[dst] || ch.receivers[dst]
	}
	return false
}

// channelProvenance finds visible channel constructions and propagates
// their sender/receiver halves through tuple projections, moves, and
// clones.
func channelProvenance(body *mir.Body) []*chanProv {
	var chans []*chanProv
	for _, blk := range body.Blocks {
		c, ok := blk.Term.(mir.Call)
		if !ok || c.Intrinsic != mir.IntrinsicNone || !mir.IsChannelCtor(c.Callee) || !c.Dest.IsLocal() {
			continue
		}
		chans = append(chans, &chanProv{
			span:      c.Span,
			tuple:     map[mir.LocalID]bool{c.Dest.Local: true},
			senders:   map[mir.LocalID]bool{},
			receivers: map[mir.LocalID]bool{},
		})
	}
	if len(chans) == 0 {
		return nil
	}
	changed := true
	for changed {
		changed = false
		track := func(m map[mir.LocalID]bool, l mir.LocalID) {
			if !m[l] {
				m[l] = true
				changed = true
			}
		}
		for _, blk := range body.Blocks {
			for _, st := range blk.Stmts {
				as, ok := st.(mir.Assign)
				if !ok || !as.Place.IsLocal() {
					continue
				}
				u, ok := as.Rvalue.(mir.Use)
				if !ok {
					continue
				}
				pl, ok := mir.OperandPlace(u.X)
				if !ok {
					continue
				}
				for _, ch := range chans {
					if ch.tuple[pl.Local] && len(pl.Proj) == 1 {
						if f, ok := pl.Proj[0].(mir.FieldProj); ok {
							switch f.Name {
							case "0":
								track(ch.senders, as.Place.Local)
							case "1":
								track(ch.receivers, as.Place.Local)
							}
						}
					}
					if len(pl.Proj) == 0 {
						if ch.tuple[pl.Local] {
							track(ch.tuple, as.Place.Local)
						}
						if ch.senders[pl.Local] {
							track(ch.senders, as.Place.Local)
						}
						if ch.receivers[pl.Local] {
							track(ch.receivers, as.Place.Local)
						}
					}
				}
			}
			c, ok := blk.Term.(mir.Call)
			if !ok || c.Intrinsic != mir.IntrinsicClone || !c.Dest.IsLocal() {
				continue
			}
			pl, ok := firstArgPlace(c)
			if !ok || len(pl.Proj) != 0 {
				continue
			}
			for _, ch := range chans {
				if ch.senders[pl.Local] {
					track(ch.senders, c.Dest.Local)
				}
				if ch.receivers[pl.Local] {
					track(ch.receivers, c.Dest.Local)
				}
			}
		}
	}
	return chans
}

func firstArgPlace(c mir.Call) (mir.Place, bool) {
	if len(c.Args) == 0 {
		return mir.Place{}, false
	}
	return mir.OperandPlace(c.Args[0])
}

// forEachRvaluePlace calls f on each place rv reads, borrows or takes
// the address of.
func forEachRvaluePlace(rv mir.Rvalue, f func(mir.Place)) {
	mir.ForEachOperandPlace(rv, f)
	switch rv := rv.(type) {
	case mir.Ref:
		f(rv.Place)
	case mir.AddrOf:
		f(rv.Place)
	case mir.Discriminant:
		f(rv.Place)
	}
}

// lostSignals is the missing/conditional-notify rule: a Condvar::wait
// whose condvar no other function unconditionally notifies can sleep
// forever — the paper's lost-signal shape, where the only wake-up is
// behind a condition the waiter itself controls. Two passes share the
// report logic: the direct pass over each function's own waits, and a
// propagated pass over summary wait events whose parameter-rooted
// condvar a caller resolved to a concrete identity (the DESIGN.md
// caveat this detector used to skip).
func lostSignals(ctx *detect.Context, idxs []*index, emit func(detect.Finding)) {
	report := func(w qwait) {
		// A notify that reached a caller's summary through translation
		// counts at the caller's identity too, after every direct one.
		var conditional *qnotify
		for _, propagated := range []bool{false, true} {
			for _, x := range idxs {
				ns := x.notifies
				if propagated {
					ns = x.propagatedNotifies
				}
				for i, n := range ns {
					if n.q != w.q || n.fn == w.holder || n.fn == w.waiter {
						continue
					}
					if n.guaranteed {
						return // rescued
					}
					if conditional == nil {
						conditional = &ns[i]
					}
				}
			}
		}
		notes := []string{
			fmt.Sprintf("wait at %s blocks until %q is notified", ctx.Fset.Position(w.span.Start), w.q),
		}
		if n := conditional; n != nil {
			notes = append(notes, fmt.Sprintf("the only notify, in %s at %s, is behind a condition and can be skipped — the classic lost-signal shape", n.fn, ctx.Fset.Position(n.span.Start)))
		} else {
			notes = append(notes, fmt.Sprintf("no other function ever calls notify_one/notify_all on %q", w.q))
		}
		emit(detect.Finding{
			Kind:     detect.KindBlocking,
			Severity: detect.SeverityError,
			Function: w.waiter,
			Span:     w.span,
			Message:  fmt.Sprintf("Condvar::wait on %q can block forever: no other function unconditionally notifies it", w.cv),
			Notes:    notes,
		})
	}
	for _, x := range idxs {
		for _, w := range x.waits {
			report(w)
		}
	}
	for _, x := range idxs {
		for _, w := range x.propagatedWaits {
			report(w)
		}
	}
}

// onceReentry is the self-deadlock rule for Once over function name's
// call_once sites: call_once blocks until the winning initializer
// finishes, so an initializer that reaches call_once on its own cell
// (directly or through helpers) waits on itself. The second pass closes
// the closure-through-parameter gap: a call_once whose initializer
// arrived as a parameter is resolved at each caller that passes a
// locally-defined closure binding in. It appends every closure whose
// summary it reads to deps.
func onceReentry(ctx *detect.Context, name string, info *funcInfo, sums map[string]resSummary, deps *[]string) (reentries, paramReentries []detect.Finding) {
	// reentrant finds the opOnce event inside closureName's summary that
	// names the same cell as sitePath, with capture roots rewritten into
	// info's (the closure-defining function's) namespace.
	reentrant := func(closureName, sitePath string) *event {
		*deps = append(*deps, closureName)
		site := summary.NormalizePath(sitePath)
		closureInfo := infoOf(ctx, closureName)
		for _, e := range sortedEvents(ctx.Fset, sums[closureName]) {
			if e.Data.Kind != opOnce {
				continue
			}
			t := e.Path
			root := alias.Root(t)
			if closureInfo != nil && closureInfo.captures[root] {
				if canon := info.res.CanonName(root); canon != "" {
					t = alias.RewriteRoot(t, root, canon)
				}
			}
			if summary.NormalizePath(t) == site {
				return e
			}
		}
		return nil
	}
	for _, oc := range info.onces {
		if oc.closure == "" {
			continue
		}
		e := reentrant(oc.closure, oc.once)
		if e == nil {
			continue
		}
		via := ""
		if e.Fn != oc.closure {
			via = fmt.Sprintf(" through %s", e.Fn)
		}
		reentries = append(reentries, detect.Finding{
			Kind:     detect.KindBlocking,
			Severity: detect.SeverityError,
			Function: name,
			Span:     oc.span,
			Message:  fmt.Sprintf("Once::call_once on %q re-enters call_once on the same Once from its initializer%s", oc.once, via),
			Notes: []string{
				fmt.Sprintf("the initializer reaches call_once on the same cell in %s at %s", e.Fn, ctx.Fset.Position(e.Span.Start)),
				"call_once blocks until the in-flight initializer completes, so the inner call waits on its own caller forever",
			},
		})
	}
	// Closure-through-parameter pass: the helper runs call_once on a
	// cell and an initializer it both received; the caller knows which
	// closure it passed and what the cell parameter names on its side.
	for _, cs := range info.calls {
		calleeInfo := infoOf(ctx, cs.Callee)
		if calleeInfo == nil {
			continue
		}
		params := mir.ParamNames(ctx.Bodies[cs.Callee])
		for _, oc := range calleeInfo.onces {
			if oc.closure != "" || oc.closureParam < 0 || oc.closureParam >= len(cs.argClosures) {
				continue
			}
			cn := cs.argClosures[oc.closureParam]
			if cn == "" {
				continue
			}
			oncePath := summary.TranslateRoot(oc.once, params, cs.ArgPaths)
			if oncePath == "" || summary.Depth(oncePath) > summary.MaxPathDepth {
				continue
			}
			e := reentrant(cn, oncePath)
			if e == nil {
				continue
			}
			paramReentries = append(paramReentries, detect.Finding{
				Kind:     detect.KindBlocking,
				Severity: detect.SeverityError,
				Function: name,
				Span:     cs.span,
				Message:  fmt.Sprintf("Once::call_once on %q re-enters call_once on the same Once from the initializer passed through %s", oncePath, cs.Callee),
				Notes: []string{
					fmt.Sprintf("%s runs the closure under call_once on %q at %s", cs.Callee, oc.once, ctx.Fset.Position(oc.span.Start)),
					fmt.Sprintf("the closure reaches call_once on the same cell in %s at %s", e.Fn, ctx.Fset.Position(e.Span.Start)),
					"call_once blocks until the in-flight initializer completes, so the inner call waits on its own caller forever",
				},
			})
		}
	}
	return reentries, paramReentries
}

// allEndsWaiting is the every-thread-blocked rule from the study's
// channel-deadlock taxonomy over the threads function name spawns: two
// spawned workers each perform a guaranteed recv first, and the only
// sends that could wake either are stuck behind the other worker's
// recv. Channel identities come from the spawner's visible
// constructions; worker-side params resolve through the same summary
// translation the lock rules use. It appends the spawned closures to
// deps.
func allEndsWaiting(ctx *detect.Context, name string, info *funcInfo, sums map[string]resSummary, deps *[]string) []detect.Finding {
	if len(info.spawns) < 2 || len(info.chans) == 0 {
		return nil
	}
	// chanOf resolves a path in the spawner's namespace (or a capture
	// name shared with a spawned closure) to a visible channel and
	// which half it is.
	chanOf := func(path string) (idx int, recvHalf bool, ok bool) {
		root := alias.Root(path)
		if path != root {
			return 0, false, false // projections: not a plain endpoint
		}
		l, has := info.res.Local(root)
		if !has {
			return 0, false, false
		}
		for i, ch := range info.chans {
			if ch.receivers[l] {
				return i, true, true
			}
			if ch.senders[l] {
				return i, false, true
			}
		}
		return 0, false, false
	}
	// Channels whose endpoints leave the contexts we can enumerate
	// (unresolved calls, non-spawn closures, stores) are unanalyzable.
	tainted := escapedChannels(ctx, info)

	type ctxRecv struct {
		chanIdx int
		ev      *event
		spawn   int
	}
	type ctxSend struct {
		chanIdx int
		after   map[int]bool
		spawn   int // -1 for the spawner's own context
	}
	var recvs []ctxRecv
	var sends []ctxSend
	collect := func(spawnIdx int, sum resSummary, capInfo *funcInfo) {
		for _, e := range sortedEvents(ctx.Fset, sum) {
			if e.Data.Kind != opRecv && e.Data.Kind != opSend {
				continue
			}
			// In a spawned context, only capture-rooted paths name
			// the spawner's channels; closure-local channels are a
			// different resource even under a colliding name.
			if capInfo != nil && !capInfo.captures[alias.Root(e.Path)] {
				continue
			}
			ci, recvHalf, ok := chanOf(e.Path)
			if !ok || tainted[ci] {
				continue
			}
			if e.Data.Kind == opRecv {
				if recvHalf && spawnIdx >= 0 && e.Data.Guaranteed {
					recvs = append(recvs, ctxRecv{chanIdx: ci, ev: e, spawn: spawnIdx})
				}
				continue
			}
			if recvHalf {
				continue
			}
			after := map[int]bool{}
			for a := range e.Data.After {
				if capInfo != nil && !capInfo.captures[alias.Root(a)] {
					continue
				}
				if ai, aRecv, ok := chanOf(a); ok && aRecv {
					after[ai] = true
				}
			}
			sends = append(sends, ctxSend{chanIdx: ci, after: after, spawn: spawnIdx})
		}
	}
	for si, sp := range info.spawns {
		*deps = append(*deps, sp.closure)
		collect(si, sums[sp.closure], infoOf(ctx, sp.closure))
	}
	collect(-1, sums[name], nil)

	// A send can wake channel c unless it is stuck behind one of the
	// two deadlocked recvs.
	var out []detect.Finding
	for i := 0; i < len(recvs); i++ {
		for j := i + 1; j < len(recvs); j++ {
			ri, rj := recvs[i], recvs[j]
			if ri.spawn == rj.spawn || ri.chanIdx == rj.chanIdx {
				continue
			}
			crossIJ := false // a send on ri's channel in rj's context behind rj's recv
			crossJI := false
			rescued := false
			for _, s := range sends {
				switch s.chanIdx {
				case ri.chanIdx:
					if s.spawn == rj.spawn && s.after[rj.chanIdx] {
						crossIJ = true
					} else if s.spawn != ri.spawn || !s.after[ri.chanIdx] {
						rescued = true
					}
				case rj.chanIdx:
					if s.spawn == ri.spawn && s.after[ri.chanIdx] {
						crossJI = true
					} else if s.spawn != rj.spawn || !s.after[rj.chanIdx] {
						rescued = true
					}
				}
				if rescued {
					break
				}
			}
			if rescued || !crossIJ || !crossJI {
				continue
			}
			first, second := ri, rj
			if ctx.Fset.Compare(second.ev.Span.Start, first.ev.Span.Start) < 0 {
				first, second = second, first
			}
			out = append(out, detect.Finding{
				Kind:     detect.KindBlocking,
				Severity: detect.SeverityError,
				Function: first.ev.Fn,
				Span:     first.ev.Span,
				Message: fmt.Sprintf("all ends waiting: recv() in %s and recv() in %s each block until the other sends, and every send is behind the other recv",
					first.ev.Fn, second.ev.Fn),
				Notes: []string{
					fmt.Sprintf("%s blocks on recv at %s; its reply is sent only after %s's recv at %s completes",
						first.ev.Fn, ctx.Fset.Position(first.ev.Span.Start), second.ev.Fn, ctx.Fset.Position(second.ev.Span.Start)),
					fmt.Sprintf("both threads are spawned by %s with the channel halves cross-wired; no third sender exists", name),
					"every thread pulls before it pushes, so no message is ever in flight — the study's all-ends-waiting channel deadlock",
				},
			})
		}
	}
	return out
}

// escapedChannels marks visible channels whose sender or receiver half
// flows somewhere the all-ends-waiting rule cannot enumerate: an
// unresolved call, a closure that is never spawned here, a projected
// store, or a non-closure aggregate.
func escapedChannels(ctx *detect.Context, info *funcInfo) map[int]bool {
	spawned := map[string]bool{}
	for _, sp := range info.spawns {
		spawned[sp.closure] = true
	}
	endpointOf := func(l mir.LocalID) (int, bool) {
		for i, ch := range info.chans {
			if ch.senders[l] || ch.receivers[l] {
				return i, true
			}
		}
		return 0, false
	}
	tainted := map[int]bool{}
	taintOp := func(op mir.Operand) {
		if pl, ok := mir.OperandPlace(op); ok && pl.IsLocal() && len(pl.Proj) == 0 {
			if ci, ok := endpointOf(pl.Local); ok {
				tainted[ci] = true
			}
		}
	}
	for _, blk := range info.body.Blocks {
		for _, st := range blk.Stmts {
			as, ok := st.(mir.Assign)
			if !ok {
				continue
			}
			if agg, isAgg := as.Rvalue.(mir.Aggregate); isAgg {
				if agg.Kind == mir.AggClosure && spawned[agg.Name] {
					continue // captures of a spawned closure are analyzed
				}
				for _, op := range agg.Ops {
					taintOp(op)
				}
				continue
			}
			if len(as.Place.Proj) > 0 {
				forEachRvaluePlace(as.Rvalue, func(pl mir.Place) {
					if len(pl.Proj) == 0 {
						if ci, ok := endpointOf(pl.Local); ok {
							tainted[ci] = true
						}
					}
				})
			}
		}
		c, ok := blk.Term.(mir.Call)
		if !ok {
			continue
		}
		switch c.Intrinsic {
		case mir.IntrinsicChanRecv, mir.IntrinsicChanSend, mir.IntrinsicDrop, mir.IntrinsicClone:
			continue
		case mir.IntrinsicSpawn:
			// The spawned closure itself was built from an aggregate the
			// statement scan already classified.
			continue
		case mir.IntrinsicNone:
			if ctx.Callee(c) != "" {
				continue // flows into summaries we scan
			}
			for _, a := range c.Args {
				taintOp(a)
			}
		default:
			for _, a := range c.Args {
				taintOp(a)
			}
		}
	}
	return tainted
}

// unavoidable reports whether every entry→return path passes through
// block at: a notify there fires on every call.
func unavoidable(body *mir.Body, g *cfg.Graph, at mir.BlockID) bool {
	if len(body.Blocks) == 0 {
		return false
	}
	entry := body.Blocks[0].ID
	if entry == at {
		return true
	}
	byID := make(map[mir.BlockID]*mir.Block, len(body.Blocks))
	for _, blk := range body.Blocks {
		byID[blk.ID] = blk
	}
	seen := map[mir.BlockID]bool{at: true, entry: true}
	stack := []mir.BlockID{entry}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		blk := byID[id]
		if blk == nil {
			continue
		}
		if _, isRet := blk.Term.(mir.Return); isRet {
			return false
		}
		for _, s := range blk.Term.Successors() {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}
