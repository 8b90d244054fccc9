// Package lockorder detects conflicting lock acquisition orders (an AB-BA
// deadlock), the second-most-common blocking-bug cause in the paper's §6.1
// (7 of 38 Mutex/RwLock bugs). It reads the double-lock detector's
// acquisition summary (doublelock.SummarizeAcquisitions, one per Context):
// every acquisition, performed directly or inherited from a callee at a
// call site, orders each lock held just before it ahead of the lock it
// takes. Pairs observed in both directions are reported.
package lockorder

import (
	"fmt"
	"sort"
	"strings"

	"rustprobe/internal/detect"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/source"
)

// Detector finds AB-BA lock order conflicts.
type Detector struct {
	// IntraOnly disables the bottom-up acquisition summaries:
	// caller-holds/callee-acquires orderings are then invisible.
	IntraOnly bool
}

// New returns the detector.
func New() *Detector { return &Detector{} }

// Name implements detect.Detector.
func (*Detector) Name() string { return "conflicting-lock-order" }

type acquisition struct {
	first, second string // lock ids, second acquired while first held
	fn            string
	span          source.Span
}

// Run implements detect.Detector. Each function's acquisition pairs,
// its own and those inherited at its call sites, are derived once from
// the acquisition summary (DerivedAll kind lockorder.pairs); Run
// indexes them in Graph.Names() order.
func (d *Detector) Run(ctx *detect.Context) []detect.Finding {
	var acqs []acquisition
	if d.IntraOnly {
		for _, name := range ctx.Graph.Names() {
			acqs = append(acqs, acquisitionsOf(ctx, name, nil)...)
		}
	} else {
		sums := doublelock.SummarizeAcquisitions(ctx)
		for _, fnAcqs := range detect.DerivedAll(ctx, "lockorder.pairs", sums, func(fn string) ([]acquisition, []string) {
			return acquisitionsOf(ctx, fn, sums.Summaries[fn]), nil
		}) {
			acqs = append(acqs, fnAcqs...)
		}
	}

	// Normalize lock ids across functions: methods of the same type refer
	// to "self.x"; free functions to parameter paths. Pair keys combine
	// the holder's id with the acquired id.
	index := map[[2]string][]acquisition{}
	for _, a := range acqs {
		index[[2]string{a.first, a.second}] = append(index[[2]string{a.first, a.second}], a)
	}

	var out []detect.Finding
	seen := map[[2]string]bool{}
	var keys [][2]string
	for k := range index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		rev := [2]string{k[1], k[0]}
		if k[0] == k[1] {
			continue // same lock twice is the double-lock detector's job
		}
		if _, hasRev := index[rev]; !hasRev {
			continue
		}
		canon := k
		if strings.Compare(canon[0], canon[1]) > 0 {
			canon = rev
		}
		if seen[canon] {
			continue
		}
		seen[canon] = true
		a := index[k][0]
		b := index[rev][0]
		out = append(out, detect.Finding{
			Kind:     detect.KindLockOrder,
			Severity: detect.SeverityError,
			Function: a.fn,
			Span:     a.span,
			Message: fmt.Sprintf("locks %q and %q are acquired in conflicting orders (%s acquires %q then %q; %s acquires %q then %q)",
				k[0], k[1], a.fn, a.first, a.second, b.fn, b.first, b.second),
			Notes: []string{"two threads interleaving these paths deadlock"},
		})
	}
	detect.SortFindings(out)
	return out
}

// acquisitionsOf returns function fn's acquisition pairs: each
// reachable acquisition ordered after every other lock held at it, and
// each acquisition its summary sum inherits at a call site, attributed
// to the call.
func acquisitionsOf(ctx *detect.Context, fn string, sum doublelock.AcquisitionSummary) []acquisition {
	var acqs []acquisition
	add := func(e *doublelock.Event[doublelock.Acquisition], span source.Span) {
		ids := make([]string, 0, len(e.Locks))
		for id := range e.Locks {
			if id != e.Path {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			acqs = append(acqs, acquisition{first: id, second: e.Path, fn: fn, span: span})
		}
	}
	f := doublelock.Acquisitions(ctx, fn)
	for _, e := range f.Own {
		if f.CFG.Reachable(e.Data.At) {
			add(e, e.Span)
		}
	}
	for _, e := range f.Inherited(sum) {
		add(e, f.CallSpan(e.Data.At))
	}
	return acqs
}
