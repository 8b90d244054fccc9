package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"rustprobe/internal/corpus"
	"rustprobe/internal/engine"
	"rustprobe/internal/gen"
)

// Workload names, in the order a full pass runs them.
const (
	batchCold   = "batch-cold"
	batchWarm   = "batch-warm"
	treeCold    = "tree-cold"
	sessionPush = "session-push"
)

var workloadNames = []string{batchCold, batchWarm, treeCold, sessionPush}

// listedClients is each workload's closed-loop client count before the
// min(listed, nproc) cap: one client per keep-alive connection.
var listedClients = map[string]int{batchCold: 2, batchWarm: 2, treeCold: 1, sessionPush: 2}

// sizes are the input sizes of one run. The command line always uses
// defaultSizes; the smoke test shrinks them.
type sizes struct {
	pool    int // batch workloads: distinct gen programs the files cycle through
	stored  int // batch-warm: programs stored before the window (16x the daemon's 256-entry LRU)
	treeGen int // tree-cold, session-push: at most this many name-disjoint gen programs
	maxReqs int // stop the window after this many requests; 0 means only the clock stops it
	replay  int // traced run: requests of the stream replayed in-process
	setups  int // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{pool: 4096, stored: 4096, treeGen: 24, replay: 300, setups: 3}

// batchFiles is the number of files per batch request.
const batchFiles = 16

// slotMark is the placeholder a template carries where the request index
// goes; slotWidth digits replace it before the request is sent.
const (
	slotMark  = "@@@@@@@"
	slotWidth = len(slotMark)
)

// label is the generator's verdict for one file of a request.
type label struct {
	kind   string // injected gen.Kind; empty for a file that must stay silent
	buggy  bool
	exempt bool // clean variant of an FP-prone template: default mode may report it
}

func genLabel(p *gen.Program) label {
	return label{kind: string(p.Kind), buggy: p.Buggy, exempt: !p.Buggy && p.FPProne}
}

var silent = label{}

// wrong reports whether a file reported with the given finding kinds
// disagrees with its label.
func (l label) wrong(kinds []string) bool {
	switch {
	case l.buggy:
		for _, k := range kinds {
			if k == l.kind {
				return false
			}
		}
		return true
	case l.exempt:
		return false
	default:
		return len(kinds) > 0
	}
}

// tmpl is one request marshalled during set-up. Its body may hold slots
// (slotMark placeholders) that fill overwrites with the request index, so
// every request can carry never-seen file names or content without any
// marshalling while timed.
type tmpl struct {
	path   string
	body   []byte
	slots  []int            // byte offsets of the slots in body
	labels map[string]label // checked files, by name (slots still marked)
}

func newTmpl(path string, v any, labels map[string]label, wantSlots int) *tmpl {
	// Sources keep their '<', '>' and '&' unescaped, as a client such as
	// curl would send them.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("bench: marshal request: %v", err))
	}
	body := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	t := &tmpl{path: path, body: body, labels: labels}
	for off := 0; ; {
		i := bytes.Index(body[off:], []byte(slotMark))
		if i < 0 {
			break
		}
		t.slots = append(t.slots, off+i)
		off += i + slotWidth
	}
	if len(t.slots) != wantSlots {
		panic(fmt.Sprintf("bench: template for %s has %d slots, want %d", path, len(t.slots), wantSlots))
	}
	return t
}

// fill returns a copy of the body with every slot set to slot.
func (t *tmpl) fill(slot int) []byte {
	out := append([]byte(nil), t.body...)
	if len(t.slots) > 0 {
		digits := slotDigits(slot)
		for _, off := range t.slots {
			copy(out[off:], digits)
		}
	}
	return out
}

// filledLabels returns the labels keyed by the names a request filled
// with slot carries.
func (t *tmpl) filledLabels(slot int) map[string]label {
	digits := slotDigits(slot)
	out := make(map[string]label, len(t.labels))
	for name, l := range t.labels {
		out[strings.Replace(name, slotMark, digits, 1)] = l
	}
	return out
}

func slotDigits(slot int) string {
	if slot < 0 || slot >= 10_000_000 {
		panic(fmt.Sprintf("bench: slot %d does not fit %d digits", slot, slotWidth))
	}
	return fmt.Sprintf("%0*d", slotWidth, slot)
}

// inputs is one workload's request stream for a seed.
type inputs struct {
	name    string
	clients int
	// prep[c] is sent by client c, untimed, before the window: batch-warm's
	// store population and session-push's full pushes.
	prep [][]*tmpl
	// restart stops the daemon after prep and starts it again on the same
	// store, so the window begins with an empty LRU.
	restart bool
	// req returns client c's k-th request: its template and slot value.
	req func(c, k int) (*tmpl, int)
}

// replayReq maps the i-th request of the stream onto (client, index):
// clients interleave, as their closed loops do under equal latency.
func (in *inputs) replayReq(i int) (c, k int) { return i % in.clients, i / in.clients }

// buildInputs generates and marshals every request body of a workload.
func buildInputs(name string, seed int64, clients int, sz sizes) (*inputs, error) {
	base := seed << 24 // gen seed space of this benchmark seed
	switch name {
	case batchCold:
		return batchColdInputs(base, clients, sz), nil
	case batchWarm:
		return batchWarmInputs(base, clients, sz), nil
	case treeCold:
		t, err := newTree(seed, sz.treeGen)
		if err != nil {
			return nil, err
		}
		return treeColdInputs(t), nil
	case sessionPush:
		t, err := newTree(seed, sz.treeGen)
		if err != nil {
			return nil, err
		}
		return sessionInputs(t, clients)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// batchColdInputs: every request is batchFiles gen programs under file
// names that carry the request index, so each file is a never-seen cache
// key (the engine keys on name and content) and takes the full per-file
// pipeline. Contents cycle through a pool of sz.pool programs.
func batchColdInputs(base int64, clients int, sz sizes) *inputs {
	nt := sz.pool / batchFiles
	tmpls := make([]*tmpl, nt)
	for t := range tmpls {
		files := map[string]string{}
		labels := map[string]label{}
		for j := 0; j < batchFiles; j++ {
			p := gen.Generate(base + int64(t*batchFiles+j))
			name := fmt.Sprintf("c%s-%02d.rs", slotMark, j)
			files[name] = p.Source
			labels[name] = genLabel(p)
		}
		tmpls[t] = newTmpl("/v1/analyze-batch", engine.BatchRequest{Files: files}, labels, batchFiles)
	}
	return &inputs{name: batchCold, clients: clients, req: func(c, k int) (*tmpl, int) {
		i := k*clients + c
		return tmpls[i%nt], i
	}}
}

// batchWarmInputs: sz.stored programs are analyzed before the window and
// the daemon restarts on that store; each request then draws batchFiles-1
// stored files uniformly plus one never-seen file.
func batchWarmInputs(base int64, clients int, sz sizes) *inputs {
	stored := make([]*gen.Program, sz.stored)
	for j := range stored {
		stored[j] = gen.Generate(base + int64(j))
	}
	storedName := func(j int) string { return fmt.Sprintf("w%04d.rs", j) }

	prep := make([][]*tmpl, clients)
	for b := 0; b*batchFiles < len(stored); b++ {
		files := map[string]string{}
		for j := b * batchFiles; j < (b+1)*batchFiles && j < len(stored); j++ {
			files[storedName(j)] = stored[j].Source
		}
		prep[b%clients] = append(prep[b%clients], newTmpl("/v1/analyze-batch", engine.BatchRequest{Files: files}, nil, 0))
	}

	rng := rand.New(rand.NewSource(base))
	nt := sz.pool / batchFiles
	tmpls := make([]*tmpl, nt)
	for t := range tmpls {
		files := map[string]string{}
		labels := map[string]label{}
		for len(files) < batchFiles-1 {
			j := rng.Intn(len(stored))
			files[storedName(j)] = stored[j].Source
			labels[storedName(j)] = genLabel(stored[j])
		}
		p := gen.Generate(base + int64(len(stored)+t))
		name := fmt.Sprintf("n%s.rs", slotMark)
		files[name] = p.Source
		labels[name] = genLabel(p)
		tmpls[t] = newTmpl("/v1/analyze-batch", engine.BatchRequest{Files: files}, labels, 1)
	}
	return &inputs{name: batchWarm, clients: clients, prep: prep, restart: true, req: func(c, k int) (*tmpl, int) {
		i := k*clients + c
		return tmpls[i%nt], i
	}}
}

// tree is the whole-repo input of tree-cold and session-push: the
// patterns and apps corpus groups plus name-disjoint gen programs, each
// of which requests swap between its buggy and clean twin.
type tree struct {
	base       map[string]string // files that never change
	baseLabels map[string]label  // checked files among them: apps, gen files that do not swap
	progs      []twinProgram     // gen files, in swap order
}

type twinProgram struct {
	name       string
	main, twin *gen.Program
}

func (p twinProgram) variant(alt bool) *gen.Program {
	if alt {
		return p.twin
	}
	return p.main
}

// src strips the generated-header comment: it names the variant, so with
// it a twin swap would also edit text outside function bodies.
func (p twinProgram) src(alt bool) string {
	s := p.variant(alt).Source
	if i := strings.Index(s, "\n"); i >= 0 && strings.HasPrefix(s, "// generated:") {
		s = s[i+1:]
	}
	return s
}

// topLevelName matches every declared top-level-ish identifier (fns,
// structs, impl targets) in a program.
var topLevelName = regexp.MustCompile(`(?m)^\s*(?:(?:pub|unsafe|async|const)\s+)*(?:fn|struct|trait|enum|impl)\s+([A-Za-z_][A-Za-z0-9_]*)`)

// disjointPrograms admits up to n generated programs whose declared
// names (across both variants) are pairwise disjoint and unused by the
// reserved names. A tree analyzes its files as one program, so programs
// sharing a struct or function name would resolve across files and their
// labels would no longer be the generator's.
func disjointPrograms(seed int64, n int, reserved map[string]bool) []twinProgram {
	taken := map[string]bool{}
	for k := range reserved {
		taken[k] = true
	}
	var out []twinProgram
	for sub := int64(0); sub < 400 && len(out) < n; sub++ {
		main := gen.Generate(seed*1000 + sub)
		twin := gen.New(main.Seed, main.Kind, !main.Buggy)
		names := topLevelName.FindAllStringSubmatch(main.Source+"\n"+twin.Source, -1)
		ok := true
		for _, m := range names {
			if taken[m[1]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, m := range names {
			taken[m[1]] = true
		}
		out = append(out, twinProgram{name: fmt.Sprintf("gen/g%02d.rs", len(out)), main: main, twin: twin})
	}
	return out
}

func newTree(seed int64, maxGen int) (*tree, error) {
	t := &tree{base: map[string]string{}, baseLabels: map[string]label{}}
	reserved := map[string]bool{}
	for _, g := range []corpus.Group{corpus.GroupPatterns, corpus.GroupApps} {
		files, err := corpus.Files(g)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			t.base[f.Path] = f.Content
			if g == corpus.GroupApps {
				t.baseLabels[f.Path] = silent
			}
			for _, m := range topLevelName.FindAllStringSubmatch(f.Content, -1) {
				reserved[m[1]] = true
			}
		}
	}
	t.progs = disjointPrograms(seed, maxGen, reserved)
	if len(t.progs) < 2 {
		return nil, fmt.Errorf("seed %d admits only %d name-disjoint gen programs", seed, len(t.progs))
	}
	return t, nil
}

// alt reports whether gen file pos holds its twin after the request with
// stream index i (the i-th request swaps file i mod K). The state has
// period 2K in i.
func (t *tree) alt(pos, i int) bool {
	k := len(t.progs)
	if i < pos {
		return false
	}
	return ((i-pos)/k+1)%2 == 1
}

// state returns the files and labels of the tree after request i, with
// gen file order rotated by off.
func (t *tree) state(i, off int) (map[string]string, map[string]label) {
	files := make(map[string]string, len(t.base)+len(t.progs))
	labels := make(map[string]label, len(t.baseLabels)+len(t.progs))
	for name, src := range t.base {
		files[name] = src
	}
	for name, l := range t.baseLabels {
		labels[name] = l
	}
	k := len(t.progs)
	for j, p := range t.progs {
		alt := t.alt((j-off+k)%k, i)
		files[p.name] = p.src(alt)
		labels[p.name] = genLabel(p.variant(alt))
	}
	return files, labels
}

// treeColdInputs: one client re-analyzes the whole tree per request; the
// churn file carries the request index, so no request is a cache hit.
func treeColdInputs(t *tree) *inputs {
	n := 2 * len(t.progs)
	tmpls := make([]*tmpl, n)
	for i := range tmpls {
		files, labels := t.state(i, 0)
		files["churn.rs"] = "// request " + slotMark + "\nfn bench_churn(x: i32) -> i32 {\n    x + 1\n}\n"
		tmpls[i] = newTmpl("/v1/analyze", engine.Request{Files: files}, labels, 1)
	}
	return &inputs{name: treeCold, clients: 1, req: func(_, k int) (*tmpl, int) {
		return tmpls[k%n], k
	}}
}

// pushRequest mirrors rustprobed's session push body.
type pushRequest struct {
	Files   map[string]string `json:"files,omitempty"`
	Changed map[string]string `json:"changed,omitempty"`
}

// sessionInputs: client c owns repo bench-s<c>, holding the tree. Set-up
// pushes the full tree; push i then swaps one gen file to its other
// twin, client c starting its rotation c*K/clients files in. Only twins
// that differ inside function bodies rotate, so every push is a body-only
// diff.
func sessionInputs(t *tree, clients int) (*inputs, error) {
	rot := &tree{base: map[string]string{}, baseLabels: map[string]label{}}
	for name, src := range t.base {
		rot.base[name] = src
	}
	for name, l := range t.baseLabels {
		rot.baseLabels[name] = l
	}
	for _, p := range t.progs {
		if interfaceText(p.src(false)) == interfaceText(p.src(true)) {
			rot.progs = append(rot.progs, p)
		} else {
			rot.base[p.name] = p.src(false)
			rot.baseLabels[p.name] = genLabel(p.main)
		}
	}
	swapped, k := rot.progs, len(rot.progs)
	if k < 2 {
		return nil, fmt.Errorf("only %d gen programs have body-only twins", k)
	}
	prep := make([][]*tmpl, clients)
	diffs := make([][]*tmpl, clients)
	for c := 0; c < clients; c++ {
		path := fmt.Sprintf("/v1/sessions/bench-s%d/push", c)
		off := c * k / clients
		files, _ := rot.state(-1, off)
		prep[c] = []*tmpl{newTmpl(path, pushRequest{Files: files}, nil, 0)}
		for i := 0; i < 2*k; i++ {
			p := swapped[(i%k+off)%k]
			_, labels := rot.state(i, off)
			diffs[c] = append(diffs[c], newTmpl(path, pushRequest{Changed: map[string]string{p.name: p.src(rot.alt(i%k, i))}}, labels, 0))
		}
	}
	return &inputs{name: sessionPush, clients: clients, prep: prep, req: func(c, i int) (*tmpl, int) {
		return diffs[c][i%(2*k)], 0
	}}, nil
}

// interfaceText is a program's text with every function body cut out; a
// twin swap that leaves it unchanged is a body-only edit.
func interfaceText(src string) string {
	var b strings.Builder
	depth, bodyDepth, sawFn := 0, -1, false
	inBody := func() bool { return bodyDepth >= 0 }
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '/' && strings.HasPrefix(src[i:], "//"):
			end := strings.IndexByte(src[i:], '\n')
			if end < 0 {
				end = len(src) - i
			}
			if !inBody() {
				b.WriteString(src[i : i+end])
			}
			i += end - 1
			continue
		case !inBody() && strings.HasPrefix(src[i:], "fn") &&
			(i == 0 || !isIdentByte(src[i-1])) && (i+2 == len(src) || !isIdentByte(src[i+2])):
			sawFn = true
		case c == '{':
			depth++
			if sawFn && !inBody() {
				bodyDepth, sawFn = depth-1, false
				b.WriteString("{}")
			}
		case c == '}':
			depth--
			if inBody() && depth == bodyDepth {
				bodyDepth = -1
				continue
			}
			sawFn = false
		case c == ';':
			sawFn = false // a function without a body
		}
		if !inBody() {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
