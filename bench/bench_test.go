package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at a tiny size, traced, against a
// rustprobed built from this checkout: every metric BENCHMARK.json names
// must be measured, every verdict must match its label, and nothing may
// be left behind in the repository or in /dev/shm.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	repoBefore, shmBefore := listTree(t, root), listTree(t, "/dev/shm")

	cfg := &config{
		root:     root,
		buildDir: t.TempDir(),
		outDir:   t.TempDir(),
		window:   5 * time.Second,
		sz:       sizes{pool: 64, stored: 64, treeGen: 4, maxReqs: 20, replay: 4, setups: 1},
		spec:     s,
	}
	bin, err := buildDaemon(root, cfg.buildDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		var log bytes.Buffer
		res, err := runOnce(cfg, bin, w, 1, true, &log)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Attempted != cfg.sz.maxReqs {
			t.Errorf("%s: %d requests checked, want %d", w, res.Attempted, cfg.sz.maxReqs)
		}
		if !res.Correct || res.WrongVerdicts != 0 || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d wrong_verdicts=%d: %s", w, res.Correct, res.Failed, res.WrongVerdicts, log.String())
		}
		for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: metric %s not emitted", w, m.Name)
			}
		}
		var out bytes.Buffer
		if err := report(cfg, res, &out); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var summary struct {
			Correct bool                       `json:"correct"`
			Metrics map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
			t.Fatalf("%s: last line is not the JSON summary: %v", w, err)
		}
		if len(summary.Metrics) != len(s.PerLayer) || !summary.Correct {
			t.Errorf("%s: traced summary has %d metrics (want the %d per-layer ones), correct=%v", w, len(summary.Metrics), len(s.PerLayer), summary.Correct)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w+".json")); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}

	if after := listTree(t, root); strings.Join(after, "\n") != strings.Join(repoBefore, "\n") {
		t.Errorf("the run changed the repository's file list")
	}
	if after := listTree(t, "/dev/shm"); strings.Join(after, "\n") != strings.Join(shmBefore, "\n") {
		t.Errorf("the run left files in /dev/shm: %v", after)
	}
}

// listTree lists the files under dir, skipping version control and the
// benchmark's build directory.
func listTree(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		out = append(out, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // ends after root
	}
	want := []int64{40, 25, 5, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestQuartiles pins Python's statistics.quantiles(n=4) convention, so the
// spreads printed here match ones computed with it.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
