package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"rustprobe"
	"rustprobe/internal/ast"
	"rustprobe/internal/callgraph"
	"rustprobe/internal/detect"
	"rustprobe/internal/engine"
	"rustprobe/internal/hir"
	"rustprobe/internal/incrstate"
	"rustprobe/internal/lexer"
	"rustprobe/internal/lower"
	"rustprobe/internal/mir"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/sessionpool"
	"rustprobe/internal/source"
	"rustprobe/internal/store"
	"rustprobe/internal/token"
	"rustprobe/internal/unsafety"
)

// span is one traced interval. Spans of one replayed request share req;
// parent is 0 for the request's root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer records nothing, which is
// how the untraced reference run shares the non-analysis steps.
type tracer struct {
	epoch time.Time
	req   int
	spans []span
	open  []int // indexes of the open spans, innermost last
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{Req: t.req, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
}

func (t *tracer) do(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// selfTimes returns each span's duration minus the union of its
// children's intervals (clipped to the span), aligned with spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// spanMetric maps a span name onto the per-layer time metric its self
// time adds to. Spans not listed (engine.key, engine.findings, ...) are
// attributed but have no metric of their own.
var spanMetric = map[string]string{
	"lexer":             "lexer.ms",
	"parser":            "parser.ms",
	"resolve":           "resolve.ms",
	"lower":             "lower.ms",
	"callgraph.build":   "callgraph.build_ms",
	"detect.context":    "detect.context_ms",
	"unsafety.scan":     "unsafety.scan_ms",
	"store.get":         "store.get_ms",
	"store.put":         "store.put_ms",
	"session.analyze":   "session.analyze_ms",
	"session.export":    "session.export_ms",
	"incrstate.encode":  "incrstate.encode_ms",
	"rustprobed.decode": "rustprobed.decode_ms",
	"rustprobed.encode": "rustprobed.encode_ms",
}

// perLayerCounts are the replay's non-time metrics that some workloads
// never reach; they read 0 there.
var perLayerCounts = []string{
	"lexer.tokens", "lexer.mtok_per_s", "parser.items", "resolve.funcs", "lower.bodies", "lower.mir_stmts",
	"callgraph.edges", "callgraph.sccs", "store.hit_frac", "store.put_bytes", "incrstate.bytes",
	"sessionpool.roots_frac", "sessionpool.files_reparsed", "sessionpool.funcs_lowered", "sessionpool.global_facts_reused",
}

func init() {
	for _, d := range rustprobe.Detectors() {
		spanMetric["detect."+d.Name()] = "detect." + d.Name() + ".ms"
		perLayerCounts = append(perLayerCounts, "detect."+d.Name()+".findings")
	}
}

// Wire shapes of rustprobed's responses, encoded as the daemon does.
type batchResponse struct {
	Results     map[string]*engine.BatchEntry `json:"results"`
	Files       int                           `json:"files"`
	Errors      int                           `json:"errors"`
	SetCacheHit bool                          `json:"set_cache_hit"`
	ElapsedMS   float64                       `json:"elapsed_ms"`
}

type analyzeResponse struct {
	Findings  []engine.Finding     `json:"findings"`
	Unsafe    engine.UnsafeSummary `json:"unsafe"`
	CacheHit  bool                 `json:"cache_hit"`
	StoreHit  bool                 `json:"store_hit,omitempty"`
	ElapsedMS float64              `json:"elapsed_ms"`
}

type sessionPushResponse struct {
	Findings  []incrstate.Finding   `json:"findings"`
	Stats     sessionpool.PushStats `json:"stats"`
	ElapsedMS float64               `json:"elapsed_ms"`
}

func encodeResponse(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// replayer serves replayed requests in-process, one layer call at a
// time, through the same steps rustprobed takes for the workload.
type replayer struct {
	workload string
	st       *store.Store
	repos    []string             // session-push: store repo name per client
	sess     []*rustprobe.Session // session-push: one session per client
	trees    []map[string]string  // session-push: each client's last pushed tree
	acc      map[string]float64   // counts of the current request
	deferred []func()             // counting work run after the request's root span
	last     *rustprobe.UpdateStats
}

func newReplayer(workload, storeDir, repoSuffix string, in *inputs) (*replayer, error) {
	st, err := store.Open(storeDir, engine.StoreVersion())
	if err != nil {
		return nil, err
	}
	r := &replayer{workload: workload, st: st}
	if workload == sessionPush {
		for c, reqs := range in.prep {
			var req pushRequest
			if err := json.Unmarshal(reqs[0].body, &req); err != nil {
				return nil, err
			}
			s := rustprobe.NewSession()
			if _, err := s.Analyze(req.Files); err != nil {
				return nil, err
			}
			r.sess = append(r.sess, s)
			r.trees = append(r.trees, req.Files)
			r.repos = append(r.repos, fmt.Sprintf("bench-s%d%s", c, repoSuffix))
		}
	}
	return r, nil
}

// serve handles one request body for client c and returns the encoded
// response.
func (r *replayer) serve(t *tracer, c int, body []byte) ([]byte, error) {
	var resp any
	var err error
	switch r.workload {
	case batchCold, batchWarm:
		var req engine.BatchRequest
		t.do("rustprobed.decode", func() { err = json.Unmarshal(body, &req) })
		if err == nil {
			resp, err = r.batch(t, req.Files)
		}
	case treeCold:
		var req engine.Request
		t.do("rustprobed.decode", func() { err = json.Unmarshal(body, &req) })
		if err == nil {
			resp, err = r.tree(t, req.Files)
		}
	case sessionPush:
		var req pushRequest
		t.do("rustprobed.decode", func() { err = json.Unmarshal(body, &req) })
		if err == nil {
			resp, err = r.push(t, c, req.Changed)
		}
	}
	if err != nil {
		return nil, err
	}
	var out []byte
	t.do("rustprobed.encode", func() { out, err = encodeResponse(resp) })
	r.acc["rustprobed.resp_kb"] += float64(len(out)) / 1024
	return out, err
}

func (r *replayer) batch(t *tracer, files map[string]string) (*batchResponse, error) {
	names := sortedKeys(files)
	resp := &batchResponse{Results: make(map[string]*engine.BatchEntry, len(names)), Files: len(names)}
	for _, name := range names {
		res, err := r.analyzeCached(t, map[string]string{name: files[name]})
		if err != nil {
			return nil, err
		}
		resp.Results[name] = &engine.BatchEntry{Findings: res.Findings, Unsafe: res.Unsafe, CacheHit: res.CacheHit, StoreHit: res.StoreHit}
	}
	return resp, nil
}

func (r *replayer) tree(t *tracer, files map[string]string) (*analyzeResponse, error) {
	res, err := r.analyzeCached(t, files)
	if err != nil {
		return nil, err
	}
	return &analyzeResponse{Findings: res.Findings, Unsafe: res.Unsafe, CacheHit: res.CacheHit, StoreHit: res.StoreHit}, nil
}

// analyzeCached mirrors one engine job: key, store read-through, the
// pipeline on a miss, and the store write.
func (r *replayer) analyzeCached(t *tracer, files map[string]string) (*engine.Response, error) {
	var key string
	t.do("engine.key", func() { key = engine.Request{Files: files}.Key() })
	var payload []byte
	var hit bool
	t.do("store.get", func() { payload, hit = r.st.Get(key) })
	r.acc["store.gets"]++
	if hit {
		r.acc["store.hits"]++
		var resp engine.Response
		var err error
		t.do("engine.decode", func() { err = json.Unmarshal(payload, &resp) })
		resp.CacheHit, resp.StoreHit = true, true
		return &resp, err
	}

	fset, fs, rep, err := r.analyze(t, files)
	if err != nil {
		return nil, err
	}
	resp := &engine.Response{Unsafe: engine.UnsafeSummary{Regions: rep.Regions, Fns: rep.Fns, Traits: rep.Traits, Total: rep.TotalUsages()}}
	t.do("engine.findings", func() { resp.Findings = engine.FindingsFrom(fset, fs) })
	t.do("engine.encode", func() { payload, err = json.Marshal(resp) })
	if err != nil {
		return nil, err
	}
	t.do("store.put", func() { err = r.st.Put(key, payload) })
	r.acc["store.put_bytes"] += float64(len(payload))
	return resp, err
}

// analyze runs the analysis pipeline. Traced, it calls each layer's
// public function in pipeline order, detectors one at a time; untraced
// (t == nil), it goes through the top-level API instead, so the two
// runs' difference is the cost of tracing and of the split.
func (r *replayer) analyze(t *tracer, files map[string]string) (*source.FileSet, []detect.Finding, *unsafety.Report, error) {
	if t == nil {
		res, err := rustprobe.AnalyzeFiles(files)
		if err != nil {
			return nil, nil, nil, err
		}
		return res.Fset, res.Detect(), res.ScanUnsafe(), nil
	}
	fset := source.NewFileSet()
	diags := source.NewDiagnostics(fset)
	var crates []*ast.Crate
	for _, name := range sortedKeys(files) {
		f := fset.Add(name, files[name])
		var toks []token.Token
		var crate *ast.Crate
		t.do("lexer", func() { toks = lexer.New(f, nil).Tokenize() })
		t.do("parser", func() { crate = parser.ParseFile(f, diags) })
		r.acc["lexer.tokens"] += float64(len(toks))
		r.acc["parser.items"] += float64(len(crate.Items))
		crates = append(crates, crate)
	}
	var prog *hir.Program
	var bodies map[string]*mir.Body
	t.do("resolve", func() { prog = resolve.Crates(fset, diags, crates...) })
	t.do("lower", func() { bodies = lower.Program(prog, diags) })
	if diags.HasErrors() {
		return nil, nil, nil, fmt.Errorf("replayed sources have errors:\n%s", diags.String())
	}
	var g *callgraph.Graph
	var ctx *detect.Context
	t.do("callgraph.build", func() { g = callgraph.Build(bodies) })
	t.do("detect.context", func() { ctx = detect.NewContextWithGraph(prog, bodies, g) })
	var all []detect.Finding
	for _, d := range rustprobe.Detectors() {
		var fs []detect.Finding
		t.do("detect."+d.Name(), func() { fs = d.Run(ctx) })
		r.acc["detect."+d.Name()+".findings"] += float64(len(fs))
		all = append(all, fs...)
	}
	t.do("detect.sort", func() { detect.SortFindings(all) })
	var rep *unsafety.Report
	t.do("unsafety.scan", func() { rep = unsafety.Scan(prog) })

	r.deferred = append(r.deferred, func() {
		r.acc["resolve.funcs"] += float64(len(prog.Funcs))
		r.acc["lower.bodies"] += float64(len(bodies))
		for _, b := range bodies {
			for _, blk := range b.Blocks {
				r.acc["lower.mir_stmts"] += float64(len(blk.Stmts))
			}
		}
		for _, es := range g.Callees {
			r.acc["callgraph.edges"] += float64(len(es))
		}
		r.acc["callgraph.sccs"] += float64(len(g.SCCs()))
	})
	return fset, all, rep, nil
}

// push mirrors one sessionpool round for client c's repo: overlay the
// diff on the last tree, analyze, persist the exported state, resolve
// the findings.
func (r *replayer) push(t *tracer, c int, changed map[string]string) (*sessionPushResponse, error) {
	var files map[string]string
	t.do("sessionpool.merge", func() {
		files = make(map[string]string, len(r.trees[c]))
		for k, v := range r.trees[c] {
			files[k] = v
		}
		for k, v := range changed {
			files[k] = v
		}
	})
	var up *rustprobe.Update
	var err error
	t.do("session.analyze", func() { up, err = r.sess[c].Analyze(files) })
	if err != nil {
		return nil, err
	}
	r.trees[c] = files
	var st *incrstate.State
	var payload []byte
	t.do("session.export", func() { st = r.sess[c].ExportState() })
	t.do("incrstate.encode", func() { payload, err = incrstate.Encode(st) })
	if err != nil {
		return nil, err
	}
	t.do("store.put", func() { err = r.st.Put(sessionpool.SessionKey(r.repos[c]), payload) })
	if err != nil {
		return nil, err
	}
	r.acc["incrstate.bytes"] += float64(len(payload))
	r.acc["store.put_bytes"] += float64(len(payload))
	var findings []incrstate.Finding
	t.do("sessionpool.findings", func() {
		findings = make([]incrstate.Finding, 0, len(up.Findings))
		for _, f := range up.Findings {
			pos := up.Result.Fset.Position(f.Span.Start)
			findings = append(findings, incrstate.Finding{
				Kind: string(f.Kind), Severity: f.Severity.String(), Function: f.Function,
				File: pos.File, Line: pos.Line, Column: pos.Column, Message: f.Message, Notes: f.Notes,
			})
		}
	})
	r.last = &up.Stats
	return &sessionPushResponse{Findings: findings, Stats: sessionpool.PushStats{UpdateStats: up.Stats, SessionHit: true}}, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Slot offsets of the replayed requests: distinct from the window's and
// from each other, so neither run reads the other's store entries.
const (
	tracedSlotBase   = 8_000_000
	untracedSlotBase = 9_000_000
)

// replayTrace replays the first n requests of the workload's stream
// in-process, each once traced and once untraced (alternating which goes
// first), writes the spans to tracePath, and returns the per-layer
// metrics: per-request medians of self times and counts.
func replayTrace(in *inputs, storeDir string, n int, tracePath string) (map[string]float64, error) {
	traced, err := newReplayer(in.name, storeDir, "", in)
	if err != nil {
		return nil, err
	}
	untraced, err := newReplayer(in.name, storeDir, "-untraced", in)
	if err != nil {
		return nil, err
	}
	tr := &tracer{epoch: time.Now()}
	var served []sample // both runs' responses, checked like the window's
	perReq := map[string][]float64{}
	var overhead, unattributed []float64
	var fullRounds, patched float64
	for i := 0; i < n; i++ {
		c, k := in.replayReq(i)
		t, slot := in.req(c, k)
		tracedBody, untracedBody := t.fill(tracedSlotBase+slot), t.fill(untracedSlotBase+slot)

		var untracedDur time.Duration
		runUntraced := func() error {
			untraced.acc = map[string]float64{}
			start := time.Now()
			out, err := untraced.serve(nil, c, untracedBody)
			untracedDur = time.Since(start)
			untraced.deferred = nil
			served = append(served, sample{t: t, slot: untracedSlotBase + slot, status: 200, body: out})
			return err
		}
		if i%2 == 1 {
			if err := runUntraced(); err != nil {
				return nil, err
			}
		}
		traced.acc = map[string]float64{}
		tr.req = i
		first := len(tr.spans)
		tr.begin("request")
		out, err := traced.serve(tr, c, tracedBody)
		tr.end()
		if err != nil {
			return nil, err
		}
		served = append(served, sample{t: t, slot: tracedSlotBase + slot, status: 200, body: out})
		for _, f := range traced.deferred {
			f()
		}
		traced.deferred = nil
		if i%2 == 0 {
			if err := runUntraced(); err != nil {
				return nil, err
			}
		}

		spans := tr.spans[first:]
		self := selfTimes(spans)
		root := float64(spans[0].End - spans[0].Start)
		overhead = append(overhead, root/float64(untracedDur)-1)
		unattributed = append(unattributed, float64(self[0])/root)
		ms := map[string]float64{}
		for j, s := range spans {
			if m, ok := spanMetric[s.Name]; ok {
				ms[m] += float64(self[j]) / 1e6
			}
		}
		// ParseFile tokenizes again; the separately timed Tokenize of the
		// same files stands in for that share of the parser span.
		ms["parser.ms"] = max(0, ms["parser.ms"]-ms["lexer.ms"])
		for _, m := range spanMetric {
			perReq[m] = append(perReq[m], ms[m])
		}
		for name, v := range traced.acc {
			perReq[name] = append(perReq[name], v)
		}
		if ms["lexer.ms"] > 0 {
			perReq["lexer.mtok_per_s"] = append(perReq["lexer.mtok_per_s"], traced.acc["lexer.tokens"]/ms["lexer.ms"]/1e3)
		}
		if g := traced.acc["store.gets"]; g > 0 {
			perReq["store.hit_frac"] = append(perReq["store.hit_frac"], traced.acc["store.hits"]/g)
		}
		if st := traced.last; st != nil {
			perReq["sessionpool.roots_frac"] = append(perReq["sessionpool.roots_frac"], float64(st.RootsDetected)/float64(max(1, st.FuncsTotal)))
			perReq["sessionpool.files_reparsed"] = append(perReq["sessionpool.files_reparsed"], float64(st.FilesReparsed))
			perReq["sessionpool.funcs_lowered"] = append(perReq["sessionpool.funcs_lowered"], float64(st.FuncsLowered))
			perReq["sessionpool.global_facts_reused"] = append(perReq["sessionpool.global_facts_reused"], float64(st.GlobalFactsReused))
			if st.Full {
				fullRounds++
			}
			if st.GraphPatched {
				patched++
			}
			traced.last = nil
		}
	}

	if failed, wrong, problem := verdicts(served); failed+wrong > 0 {
		return nil, fmt.Errorf("%d replayed responses failed and %d verdicts were wrong: %s", failed, wrong, problem)
	}

	out := map[string]float64{}
	for name, vs := range perReq {
		out[name] = median(vs)
	}
	// Counts present only for some requests still get every metric.
	for _, name := range perLayerCounts {
		if _, ok := out[name]; !ok {
			out[name] = 0
		}
	}
	out["sessionpool.full_rounds"] = fullRounds
	out["sessionpool.graph_patched_frac"] = patched / float64(n)
	out["trace.overhead_frac"] = median(overhead)
	out["trace.unattributed_frac"] = median(unattributed)
	delete(out, "store.gets")
	delete(out, "store.hits")

	f, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		return nil, err
	}
	return out, f.Close()
}
