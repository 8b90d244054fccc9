package race

import (
	"strings"
	"testing"

	"rustprobe/internal/detect"
	"rustprobe/internal/lower"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
)

func analyze(t *testing.T, src string) []detect.Finding {
	t.Helper()
	fset := source.NewFileSet()
	f := fset.Add("test.rs", src)
	diags := source.NewDiagnostics(fset)
	crate := parser.ParseFile(f, diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	prog := resolve.Crates(fset, diags, crate)
	bodies := lower.Program(prog, diags)
	ctx := detect.NewContext(prog, bodies)
	return New().Run(ctx)
}

func dump(fs []detect.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(string(f.Kind) + "|" + f.Function + ": " + f.Message + "\n")
	}
	return b.String()
}

// Two spawned closures mutate the same captured shared structure with no
// lock: the canonical §6.2 shape.
func TestRaceTwoSpawnsOnSharedField(t *testing.T) {
	fs := analyze(t, `
struct Stats { hits: u64 }
fn tally(stats: Arc<Stats>) {
    let a = Arc::clone(&stats);
    let b = Arc::clone(&stats);
    thread::spawn(move || { a.hits += 1; });
    thread::spawn(move || { b.hits += 1; });
}
`)
	if len(fs) == 0 {
		t.Fatalf("expected a race on stats.hits, got none")
	}
	for _, f := range fs {
		if f.Function != "tally" {
			t.Errorf("finding in %s, want tally:\n%s", f.Function, dump(fs))
		}
	}
}

// The spawner keeps writing after the spawn: spawner-vs-thread race.
func TestRaceSpawnerContinuation(t *testing.T) {
	fs := analyze(t, `
struct Shared { n: u64 }
fn run(s: Arc<Shared>) {
    let h = Arc::clone(&s);
    thread::spawn(move || { h.n += 1; });
    s.n += 1;
}
`)
	if len(fs) == 0 {
		t.Fatal("expected a spawner-vs-thread race on s.n")
	}
}

// A static mut incremented from a spawned thread and the spawner.
func TestRaceStaticMut(t *testing.T) {
	fs := analyze(t, `
static mut COUNTER: u64 = 0;
fn bump() {
    thread::spawn(move || { unsafe { COUNTER += 1; } });
    unsafe { COUNTER += 1; }
}
`)
	if len(fs) == 0 {
		t.Fatal("expected a race on static COUNTER")
	}
}

// One closure spawned in a loop races with its own other instances.
func TestRaceSpawnInLoop(t *testing.T) {
	fs := analyze(t, `
struct Queue { items: u64 }
fn fan_out(q: Arc<Queue>) {
    for i in 0..4 {
        let h = Arc::clone(&q);
        thread::spawn(move || { h.items += 1; });
    }
}
`)
	if len(fs) == 0 {
		t.Fatal("expected a race between loop-spawned instances")
	}
}

// Negative: both sides lock the mutex around the access.
func TestNoRaceWhenLockProtected(t *testing.T) {
	fs := analyze(t, `
struct State { n: u64 }
fn protected(m: Arc<Mutex<State>>) {
    let h = Arc::clone(&m);
    thread::spawn(move || {
        let mut g = h.lock().unwrap();
        g.n += 1;
    });
    let mut g2 = m.lock().unwrap();
    g2.n += 1;
}
`)
	if len(fs) != 0 {
		t.Fatalf("lock-protected accesses flagged:\n%s", dump(fs))
	}
}

// Negative: Rc never crosses a thread boundary — single-threaded sharing
// is not a race.
func TestNoRaceSingleThreadedRc(t *testing.T) {
	fs := analyze(t, `
struct Doc { edits: u64 }
fn single(doc: Rc<Doc>) {
    let alias = Rc::clone(&doc);
    alias.edits += 1;
    doc.edits += 1;
}
`)
	if len(fs) != 0 {
		t.Fatalf("single-threaded Rc flagged:\n%s", dump(fs))
	}
}

// Negative: the guard moves into the spawned closure; the thread works on
// locked data while the spawner never touches it again.
func TestNoRaceGuardMovedAcrossSpawn(t *testing.T) {
	fs := analyze(t, `
struct Buf { data: u64 }
fn handoff(m: Arc<Mutex<Buf>>) {
    let g = m.lock().unwrap();
    thread::spawn(move || {
        g.data += 1;
    });
}
`)
	if len(fs) != 0 {
		t.Fatalf("guard handoff flagged:\n%s", dump(fs))
	}
}

// Negative: atomics synchronize; fetch_add from two threads is not a race.
func TestNoRaceAtomics(t *testing.T) {
	fs := analyze(t, `
struct Metrics { hits: AtomicU64 }
fn count(m: Arc<Metrics>) {
    let h = Arc::clone(&m);
    thread::spawn(move || { h.hits.fetch_add(1, Ordering::SeqCst); });
    m.hits.fetch_add(1, Ordering::SeqCst);
}
`)
	if len(fs) != 0 {
		t.Fatalf("atomic accesses flagged:\n%s", dump(fs))
	}
}

// Negative: accesses before the spawn are ordered by the spawn edge.
func TestNoRacePreSpawnAccess(t *testing.T) {
	fs := analyze(t, `
struct Cfg { n: u64 }
fn setup(c: Arc<Cfg>) {
    c.n = 4;
    let h = Arc::clone(&c);
    thread::spawn(move || { let v = h.n; });
}
`)
	if len(fs) != 0 {
		t.Fatalf("pre-spawn write flagged:\n%s", dump(fs))
	}
}

// Inter-procedural: the write happens in a helper the closure calls, with
// the lockset computed through the call chain on the callee side only —
// the spawner side takes no lock, so the race remains.
func TestRaceThroughHelperCall(t *testing.T) {
	fs := analyze(t, `
struct Book { entries: u64 }
fn append(b: Arc<Book>) {
    b.entries += 1;
}
fn run(book: Arc<Book>) {
    let h = Arc::clone(&book);
    thread::spawn(move || { append(h); });
    book.entries += 1;
}
`)
	if len(fs) == 0 {
		t.Fatal("expected race through helper call")
	}
}

// Negative: the mutex lives in a struct field. The receiver read at the
// lock() call site resolves to the same canonical path the guard derefs
// do, and must not count as an unguarded access to that field.
func TestNoRaceFieldMutexBothSides(t *testing.T) {
	fs := analyze(t, `
struct State { jobs: Mutex<u64> }
fn worker(s: Arc<State>) {
    let h = Arc::clone(&s);
    thread::spawn(move || {
        let mut g = h.jobs.lock().unwrap();
        *g += 1;
    });
    let mut g2 = s.jobs.lock().unwrap();
    *g2 += 1;
}
`)
	if len(fs) != 0 {
		t.Fatalf("field-mutex guarded accesses flagged:\n%s", dump(fs))
	}
}

// Negative: with two spawns, the spawner's post-spawn accesses are
// program-ordered on one thread and must not be paired against themselves
// (the threads only read, and read/read never races).
func TestNoRaceSpawnerSelfPair(t *testing.T) {
	fs := analyze(t, `
struct Pair { a: u64, b: u64 }
fn run(p: Arc<Pair>) {
    let h1 = Arc::clone(&p);
    let h2 = Arc::clone(&p);
    thread::spawn(move || { let x = h1.a; });
    thread::spawn(move || { let y = h2.a; });
    p.b += 1;
    p.b += 1;
}
`)
	if len(fs) != 0 {
		t.Fatalf("spawner paired against itself:\n%s", dump(fs))
	}
}

// Two spawns where the spawner's post-spawn write to the root captured by
// the FIRST spawn comes after the second spawn: the escape set must be
// complete before continuations are filtered, and the write still races
// with the first thread.
func TestRaceContinuationAfterSecondSpawn(t *testing.T) {
	fs := analyze(t, `
struct A { n: u64 }
struct B { m: u64 }
fn run(a: Arc<A>, b: Arc<B>) {
    let h1 = Arc::clone(&a);
    thread::spawn(move || { h1.n += 1; });
    let h2 = Arc::clone(&b);
    thread::spawn(move || { let v = h2.m; });
    a.n += 1;
}
`)
	if len(fs) == 0 {
		t.Fatal("expected race on a.n between first thread and post-spawn write")
	}
	for _, f := range fs {
		if strings.Contains(f.Message, "\"b.m\"") {
			t.Errorf("read-only b.m flagged:\n%s", dump(fs))
		}
	}
}

// Inter-procedural negative: both sides reach the write through a helper
// that locks first.
func TestNoRaceThroughLockingHelper(t *testing.T) {
	fs := analyze(t, `
struct Ledger { total: u64 }
fn add(m: Arc<Mutex<Ledger>>) {
    let mut g = m.lock().unwrap();
    g.total += 1;
}
fn run(led: Arc<Mutex<Ledger>>) {
    let h = Arc::clone(&led);
    thread::spawn(move || { add(h); });
    add(led);
}
`)
	if len(fs) != 0 {
		t.Fatalf("locking helper flagged:\n%s", dump(fs))
	}
}

// Negative: the thread's write reaches the field through a helper that
// is called once under the read guard and once under the write guard.
// The lock is held on both paths, so the merged lockset keeps it, in
// read mode, which still serializes against the spawner's write guard.
// The guards are taken through &Board: the lowering recognizes read()
// and write() only on a receiver it has typed as RwLock, and a field
// reached through Arc is not.
func TestNoRaceUnderReadAndWriteGuards(t *testing.T) {
	fs := analyze(t, `
struct Board { gate: RwLock<u64>, hits: u64 }
fn store(b: &Board) {
    b.hits = 1;
}
fn update(b: &Board, fast: bool) {
    if fast {
        let g = b.gate.read().unwrap();
        store(b);
    } else {
        let g = b.gate.write().unwrap();
        store(b);
    }
}
fn reset(b: &Board) {
    let g = b.gate.write().unwrap();
    b.hits = 2;
}
fn run(board: Arc<Board>) {
    let h = Arc::clone(&board);
    thread::spawn(move || { update(&h, true); });
    reset(&board);
}
`)
	if len(fs) != 0 {
		t.Fatalf("write guarded on every path flagged:\n%s", dump(fs))
	}
}
