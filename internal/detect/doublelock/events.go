package doublelock

import (
	"rustprobe/internal/detect"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/summary"
)

// Event is one lockset-annotated event in a function's summary (a
// shared-memory access, a channel or condvar operation), expressed in the
// namespace of the function whose summary holds it. D is the detector's
// payload. A summary never mutates an event: a merge builds a new one, so
// events and their lock maps may be shared between summaries.
type Event[D any] struct {
	Path  string // the place or resource the event touches
	Fn    string // function whose body performs the event
	Span  source.Span
	Locks map[string]Mode // locks held on every path to the event
	Data  D
}

// EventKey identifies an event in a summary: its path, its performing
// function and span, and the payload's identity.
type EventKey[I comparable] struct {
	Path  string
	Fn    string
	Start int
	ID    I
}

// Events is one function's event summary.
type Events[I comparable, D any] map[EventKey[I]]*Event[D]

// CallSite is one resolved call as the event summary reads it.
type CallSite struct {
	Callee   string
	At       mir.BlockID     // the block the call terminates
	ArgPaths []string        // caller-side path of each argument, "" if none
	Held     map[string]Mode // locks held at the call
}

// Call returns the site. A detector's call record that embeds a
// CallSite inherits it and so satisfies Site.
func (cs CallSite) Call() CallSite { return cs }

// Site is a call record an EventProblem reads: a CallSite, or a record
// that embeds one next to detector-specific fields.
type Site interface{ Call() CallSite }

// EventProblem holds the detector-specific hooks of an event summary.
// The event map, the transfer through call sites, the lockset merge and
// the convergence check are shared (SummarizeEvents).
type EventProblem[I comparable, D any, S Site] struct {
	// Facts returns fn's own events and its resolved call sites.
	Facts func(fn string) ([]*Event[D], []S)
	// ID is the payload's part of the event key.
	ID func(D) I
	// Step carries a callee event's payload through call site s.
	// translate maps a callee path into the caller's namespace, returning
	// "" when the path does not survive. Nil keeps the payload.
	Step func(d D, s S, translate func(string) string) D
	// Merge joins the payloads of one event reaching a function along
	// two paths. Nil keeps the first.
	Merge func(a, b D) D
	// Equal compares payloads for the convergence check. Nil treats all
	// payloads as equal.
	Equal func(a, b D) bool
}

// SummarizeEvents computes every function's event summary bottom-up over
// the call graph on the internal/summary SCC fixpoint. A summary is the
// function's own events plus each callee event translated through the
// call site: its path through summary.TranslateRoot, dropped past
// summary.MaxPathDepth; its locks through TranslateLocks, with the
// site's held locks added and the stronger mode winning. One event
// reached along several paths keeps only the locks held on all of them,
// each in the weaker of its modes. The summary is computed once per
// Context under kind (detect.Summary), warm-started from the previous
// session round's.
func SummarizeEvents[I comparable, D any, S Site](ctx *detect.Context, kind string, p *EventProblem[I, D, S]) *summary.Result[Events[I, D]] {
	add := func(s Events[I, D], e *Event[D]) {
		k := EventKey[I]{Path: e.Path, Fn: e.Fn, Start: e.Span.Start, ID: p.ID(e.Data)}
		prev, ok := s[k]
		if !ok {
			s[k] = e
			return
		}
		merged := *prev
		merged.Locks = intersectLocks(prev.Locks, e.Locks)
		if p.Merge != nil {
			merged.Data = p.Merge(prev.Data, e.Data)
		}
		s[k] = &merged
	}
	prob := &summary.Problem[Events[I, D]]{
		Bottom: func(string) Events[I, D] { return Events[I, D]{} },
		Equal: func(a, b Events[I, D]) bool {
			if len(a) != len(b) {
				return false
			}
			for k, ae := range a {
				be, ok := b[k]
				if !ok || !locksEqual(ae.Locks, be.Locks) || (p.Equal != nil && !p.Equal(ae.Data, be.Data)) {
					return false
				}
			}
			return true
		},
		Transfer: func(fn string, get summary.Lookup[Events[I, D]]) Events[I, D] {
			own, calls := p.Facts(fn)
			s := make(Events[I, D], len(own))
			for _, e := range own {
				add(s, e)
			}
			for _, site := range calls {
				cs := site.Call()
				callee, known := get(cs.Callee)
				if !known {
					continue
				}
				params := mir.ParamNames(ctx.Bodies[cs.Callee])
				translate := func(path string) string {
					t := summary.TranslateRoot(path, params, cs.ArgPaths)
					if t == "" || summary.Depth(t) > summary.MaxPathDepth {
						return ""
					}
					return t
				}
				for _, e := range callee {
					path := translate(e.Path)
					if path == "" {
						continue
					}
					locks := TranslateLocks(e.Locks, params, cs.ArgPaths)
					for id, m := range cs.Held {
						if cur, ok := locks[id]; !ok || m > cur {
							locks[id] = m
						}
					}
					d := e.Data
					if p.Step != nil {
						d = p.Step(d, site, translate)
					}
					add(s, &Event[D]{Path: path, Fn: e.Fn, Span: e.Span, Locks: locks, Data: d})
				}
			}
			return s
		},
	}
	return detect.Summary(ctx, kind, prob)
}

// intersectLocks keeps the locks held in both maps, each in the weaker
// of its two modes.
func intersectLocks(a, b map[string]Mode) map[string]Mode {
	out := make(map[string]Mode, len(a))
	for id, am := range a {
		if bm, ok := b[id]; ok {
			out[id] = min(am, bm)
		}
	}
	return out
}

func locksEqual(a, b map[string]Mode) bool {
	if len(a) != len(b) {
		return false
	}
	for id, m := range a {
		if bm, ok := b[id]; !ok || bm != m {
			return false
		}
	}
	return true
}
