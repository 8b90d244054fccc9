package blocking

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

func wantOne(t *testing.T, fs []detect.Finding, fn string) {
	t.Helper()
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 finding in %s, got %d:\n%s", fn, len(fs), dump(fs))
	}
	if fs[0].Function != fn {
		t.Errorf("finding in %s, want %s:\n%s", fs[0].Function, fn, dump(fs))
	}
	if fs[0].Kind != detect.KindBlocking {
		t.Errorf("kind %s, want blocking", fs[0].Kind)
	}
}

func wantNone(t *testing.T, fs []detect.Finding) {
	t.Helper()
	if len(fs) != 0 {
		t.Fatalf("want no findings, got:\n%s", dump(fs))
	}
}

// --- Rule: hold-and-wait channel cycles -----------------------------------

// The receiver blocks on recv() while holding the lock the sender must
// acquire before it can send: a two-thread wait cycle.
func TestChannelRecvWhileHoldingSendersLock(t *testing.T) {
	fs := analyze(t, `
struct Hub { state: Mutex<i32> }
impl Hub {
    fn pull(&self, rx: Receiver<i32>) {
        let g = self.state.lock().unwrap();
        let v = rx.recv().unwrap();
        use_both(*g, v);
    }
    fn push(&self, tx: Sender<i32>) {
        let g = self.state.lock().unwrap();
        tx.send(*g);
    }
}
`)
	wantOne(t, fs, "Hub::pull")
}

// Releasing the lock before blocking breaks the cycle.
func TestChannelRecvAfterReleasingLock(t *testing.T) {
	fs := analyze(t, `
struct Hub { state: Mutex<i32> }
impl Hub {
    fn pull(&self, rx: Receiver<i32>) {
        let snapshot = { let g = self.state.lock().unwrap(); *g };
        let v = rx.recv().unwrap();
        use_both(snapshot, v);
    }
    fn push(&self, tx: Sender<i32>) {
        let g = self.state.lock().unwrap();
        tx.send(*g);
    }
}
`)
	wantNone(t, fs)
}

// A sender that needs no lock can always make progress: no cycle.
func TestChannelRecvSenderNeedsNoLock(t *testing.T) {
	fs := analyze(t, `
struct Hub { state: Mutex<i32> }
impl Hub {
    fn pull(&self, rx: Receiver<i32>) {
        let g = self.state.lock().unwrap();
        let v = rx.recv().unwrap();
        use_both(*g, v);
    }
    fn push(&self, tx: Sender<i32>) {
        tx.send(1);
    }
}
`)
	wantNone(t, fs)
}

// The recv hides in a helper; the summary carries it (with the helper's
// endpoint translated to the caller's field) up to the lock-holding
// caller.
func TestChannelRecvThroughHelper(t *testing.T) {
	fs := analyze(t, `
struct Hub { state: Mutex<i32>, inbox: Receiver<i32>, outbox: Sender<i32> }
impl Hub {
    fn pull(&self) {
        let g = self.state.lock().unwrap();
        let v = self.drain();
        use_both(*g, v);
    }
    fn drain(&self) -> i32 {
        let v = self.inbox.recv().unwrap();
        v
    }
    fn push(&self) {
        let g = self.state.lock().unwrap();
        self.outbox.send(*g);
    }
}
`)
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 finding, got %d:\n%s", len(fs), dump(fs))
	}
	if fs[0].Function != "Hub::drain" {
		t.Errorf("finding attributed to %s, want the literal recv site Hub::drain:\n%s", fs[0].Function, dump(fs))
	}
}

// The helper's recv is reached once under the read guard and once under
// the write guard. The lock is held on both paths, so the merged summary
// keeps it, in the weaker (read) mode, and the writer-side sender still
// closes the cycle.
func TestChannelRecvUnderReadAndWriteGuards(t *testing.T) {
	fs := analyze(t, `
struct Hub { state: RwLock<i32>, rx: Receiver<i32>, tx: Sender<i32> }
impl Hub {
    fn wait_msg(&self) -> i32 {
        let v = self.rx.recv().unwrap();
        v
    }
    fn pull(&self, fresh: bool) {
        if fresh {
            let g = self.state.read().unwrap();
            let v = self.wait_msg();
            use_both(*g, v);
        } else {
            let mut g = self.state.write().unwrap();
            let v = self.wait_msg();
            *g = v;
        }
    }
    fn push(&self) {
        let g = self.state.write().unwrap();
        self.tx.send(*g);
    }
}
`)
	wantOne(t, fs, "Hub::wait_msg")
	if !strings.Contains(fs[0].Notes[0], "self.state(read)") {
		t.Errorf("receiver should hold self.state in read mode: %q", fs[0].Notes[0])
	}
}

// --- Rule: orphaned receive ------------------------------------------------

func TestOrphanedRecvDroppedSender(t *testing.T) {
	fs := analyze(t, `
fn poll() -> i32 {
    let (tx, rx) = mpsc::channel();
    drop(tx);
    let v = rx.recv().unwrap();
    v
}
`)
	wantOne(t, fs, "poll")
}

// The sender escapes into a spawned closure: someone may send.
func TestOrphanedRecvNegativeSenderEscapes(t *testing.T) {
	fs := analyze(t, `
fn poll() -> i32 {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || { tx.send(7); });
    let v = rx.recv().unwrap();
    v
}
`)
	wantNone(t, fs)
}

// A used sender (send before recv) is live even if dropped afterwards.
func TestOrphanedRecvNegativeSenderUsed(t *testing.T) {
	fs := analyze(t, `
fn poll() -> i32 {
    let (tx, rx) = mpsc::channel();
    tx.send(7);
    drop(tx);
    let v = rx.recv().unwrap();
    v
}
`)
	wantNone(t, fs)
}

// A cloned-then-dropped sender is still orphaned: no alias survives.
func TestOrphanedRecvCloneStillOrphaned(t *testing.T) {
	fs := analyze(t, `
fn poll() -> i32 {
    let (tx, rx) = mpsc::channel();
    let tx2 = tx.clone();
    drop(tx);
    drop(tx2);
    let v = rx.recv().unwrap();
    v
}
`)
	wantOne(t, fs, "poll")
}

// Passing the sender to another function counts as escape.
func TestOrphanedRecvNegativeSenderPassedOn(t *testing.T) {
	fs := analyze(t, `
fn poll() -> i32 {
    let (tx, rx) = mpsc::channel();
    hand_off(tx);
    let v = rx.recv().unwrap();
    v
}
fn hand_off(tx: Sender<i32>) {
    tx.send(1);
}
`)
	wantNone(t, fs)
}

// --- Rule: condvar lost signal ---------------------------------------------

func TestCondvarNoNotifier(t *testing.T) {
	fs := analyze(t, `
struct W { ready: Mutex<bool>, cv: Condvar }
impl W {
    fn wait(&self) {
        let g = self.ready.lock().unwrap();
        let g2 = self.cv.wait(g);
        consume(g2);
    }
}
`)
	wantOne(t, fs, "W::wait")
}

func TestCondvarConditionalNotifyStillLost(t *testing.T) {
	fs := analyze(t, `
struct W { ready: Mutex<bool>, cv: Condvar }
impl W {
    fn wait(&self) {
        let g = self.ready.lock().unwrap();
        let g2 = self.cv.wait(g);
        consume(g2);
    }
    fn signal(&self, go: bool) {
        if go {
            self.cv.notify_all();
        }
    }
}
`)
	wantOne(t, fs, "W::wait")
	if !strings.Contains(fs[0].Notes[1], "behind a condition") {
		t.Errorf("note should name the conditional notify, got %q", fs[0].Notes[1])
	}
}

func TestCondvarGuaranteedNotifyRescues(t *testing.T) {
	fs := analyze(t, `
struct W { ready: Mutex<bool>, cv: Condvar }
impl W {
    fn wait(&self) {
        let g = self.ready.lock().unwrap();
        let g2 = self.cv.wait(g);
        consume(g2);
    }
    fn signal(&self) {
        let mut g = self.ready.lock().unwrap();
        *g = true;
        drop(g);
        self.cv.notify_all();
    }
}
`)
	wantNone(t, fs)
}

// A condvar received as a parameter with no caller giving it a concrete
// identity has unknowable notifiers: silent.
func TestCondvarParameterSilent(t *testing.T) {
	fs := analyze(t, `
fn waiter(m: Mutex<bool>, cv: Condvar) {
    let g = m.lock().unwrap();
    let g2 = cv.wait(g);
    consume(g2);
}
`)
	wantNone(t, fs)
}

// A param-rooted wait resolves at the caller that passes a concrete
// condvar in: the caller-side identity is matched against program-wide
// notifies, closing the documented parameter false negative.
func TestCondvarParamWaitResolvedAtCaller(t *testing.T) {
	fs := analyze(t, `
struct W { ready: Mutex<bool>, cv: Condvar }
impl W {
    fn block(&self) {
        wait_on(self.ready, self.cv);
    }
    fn signal(&self, go: bool) {
        if go {
            self.cv.notify_all();
        }
    }
}
fn wait_on(m: Mutex<bool>, cv: Condvar) {
    let g = m.lock().unwrap();
    let g2 = cv.wait(g);
    consume(g2);
}
`)
	wantOne(t, fs, "wait_on")
	if !strings.Contains(fs[0].Notes[1], "behind a condition") {
		t.Errorf("note should name the conditional notify, got %q", fs[0].Notes[1])
	}
}

// The same propagated identity is rescued by a guaranteed notify on the
// caller's condvar: no false positive from the new pass.
func TestCondvarParamWaitGuaranteedNotifyRescues(t *testing.T) {
	fs := analyze(t, `
struct W { ready: Mutex<bool>, cv: Condvar }
impl W {
    fn block(&self) {
        wait_on(self.ready, self.cv);
    }
    fn signal(&self) {
        self.cv.notify_all();
    }
}
fn wait_on(m: Mutex<bool>, cv: Condvar) {
    let g = m.lock().unwrap();
    let g2 = cv.wait(g);
    consume(g2);
}
`)
	wantNone(t, fs)
}

// A wait whose condvar stays parameter-rooted through the whole call
// chain never resolves: escape = silence, not a false positive.
func TestCondvarParamChainNeverResolvesSilent(t *testing.T) {
	fs := analyze(t, `
fn outer(m: Mutex<bool>, cv: Condvar) {
    wait_on(m, cv);
}
fn wait_on(m: Mutex<bool>, cv: Condvar) {
    let g = m.lock().unwrap();
    let g2 = cv.wait(g);
    consume(g2);
}
`)
	wantNone(t, fs)
}

// --- Rule: all ends waiting --------------------------------------------------

// Two spawned workers with cross-wired channel parameters each pull
// before pushing: no message is ever in flight.
func TestAllEndsWaitingCrossWiredWorkers(t *testing.T) {
	fs := analyze(t, `
fn worker_a(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 1);
}
fn worker_b(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 2);
}
fn pipeline() {
    let (tx_a, rx_a) = mpsc::channel();
    let (tx_b, rx_b) = mpsc::channel();
    thread::spawn(move || { worker_a(rx_a, tx_b); });
    thread::spawn(move || { worker_b(rx_b, tx_a); });
}
`)
	wantOne(t, fs, "worker_a")
	if !strings.Contains(fs[0].Message, "all ends waiting") {
		t.Errorf("message should name the shape, got %q", fs[0].Message)
	}
}

// Seeding the ring with a message before spawning rescues the cycle:
// the spawner's own send has no recv dependency.
func TestAllEndsWaitingSeededSendRescues(t *testing.T) {
	fs := analyze(t, `
fn worker_a(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 1);
}
fn worker_b(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 2);
}
fn pipeline() {
    let (tx_a, rx_a) = mpsc::channel();
    let (tx_b, rx_b) = mpsc::channel();
    tx_a.send(0);
    thread::spawn(move || { worker_a(rx_a, tx_b); });
    thread::spawn(move || { worker_b(rx_b, tx_a); });
}
`)
	wantNone(t, fs)
}

// A worker that pushes before it pulls keeps the ring live: no cycle.
func TestAllEndsWaitingSendFirstWorkerRescues(t *testing.T) {
	fs := analyze(t, `
fn worker_a(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 1);
}
fn worker_push(rx: Receiver<i32>, tx: Sender<i32>) {
    tx.send(0);
    let job = rx.recv().unwrap();
    consume(job);
}
fn pipeline() {
    let (tx_a, rx_a) = mpsc::channel();
    let (tx_b, rx_b) = mpsc::channel();
    thread::spawn(move || { worker_a(rx_a, tx_b); });
    thread::spawn(move || { worker_push(rx_b, tx_a); });
}
`)
	wantNone(t, fs)
}

// An endpoint escaping to an unresolvable callee taints the channel:
// silence rather than a guess.
func TestAllEndsWaitingEscapedEndpointSilent(t *testing.T) {
	fs := analyze(t, `
fn worker_a(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 1);
}
fn worker_b(rx: Receiver<i32>, tx: Sender<i32>) {
    let job = rx.recv().unwrap();
    tx.send(job + 2);
}
fn pipeline() {
    let (tx_a, rx_a) = mpsc::channel();
    let (tx_b, rx_b) = mpsc::channel();
    let tx_extra = tx_a.clone();
    mystery::stash(tx_extra);
    thread::spawn(move || { worker_a(rx_a, tx_b); });
    thread::spawn(move || { worker_b(rx_b, tx_a); });
}
`)
	wantNone(t, fs)
}

// Distinct condvars on distinct types don't rescue each other.
func TestCondvarWrongNotifierDoesNotRescue(t *testing.T) {
	fs := analyze(t, `
struct A { m: Mutex<bool>, cv: Condvar }
struct B { m: Mutex<bool>, cv: Condvar }
impl A {
    fn wait(&self) {
        let g = self.m.lock().unwrap();
        let g2 = self.cv.wait(g);
        consume(g2);
    }
}
impl B {
    fn signal(&self) {
        self.cv.notify_all();
    }
}
`)
	wantOne(t, fs, "A::wait")
}

// --- Rule: Once reentrancy --------------------------------------------------

func TestOnceReentrantThroughHelper(t *testing.T) {
	fs := analyze(t, `
fn init(once: Once) {
    once.call_once(|| {
        helper(once);
    });
}
fn helper(once: Once) {
    once.call_once(|| {
        work();
    });
}
`)
	wantOne(t, fs, "init")
	if !strings.Contains(fs[0].Message, "helper") {
		t.Errorf("message should name the re-entry path, got %q", fs[0].Message)
	}
}

func TestOnceDistinctCellsClean(t *testing.T) {
	fs := analyze(t, `
fn init(first: Once, second: Once) {
    first.call_once(|| {
        inner(second);
    });
}
fn inner(second: Once) {
    second.call_once(|| {
        work();
    });
}
`)
	wantNone(t, fs)
}

// The initializer closure is handed through a helper parameter; the
// caller resolves both the closure binding and the cell identity.
func TestOnceReentrantClosureThroughParam(t *testing.T) {
	fs := analyze(t, `
fn run_init(once: Once, f: F) {
    once.call_once(f);
}
fn init(once: Once) {
    let f = || {
        once.call_once(|| { work(); });
    };
    run_init(once, f);
}
`)
	wantOne(t, fs, "init")
	if !strings.Contains(fs[0].Message, "run_init") {
		t.Errorf("message should name the helper, got %q", fs[0].Message)
	}
}

// Distinct cells through the same helper shape: no re-entry.
func TestOnceDistinctCellsThroughParamClean(t *testing.T) {
	fs := analyze(t, `
fn run_init(once: Once, f: F) {
    once.call_once(f);
}
fn init(first: Once, second: Once) {
    let f = || {
        second.call_once(|| { work(); });
    };
    run_init(first, f);
}
`)
	wantNone(t, fs)
}

// A locally-bound closure (let f = || …; cell.call_once(f)) resolves
// through the binding, including a move binding.
func TestOnceReentrantClosureByVariable(t *testing.T) {
	fs := analyze(t, `
fn init(once: Once) {
    let f = move || {
        once.call_once(|| { work(); });
    };
    once.call_once(f);
}
`)
	wantOne(t, fs, "init")
}

func TestOncePlainInitClean(t *testing.T) {
	fs := analyze(t, `
static mut CONFIG: i32 = 0;
fn init(once: Once) -> i32 {
    once.call_once(|| {
        unsafe { CONFIG = 42; }
    });
    unsafe { CONFIG }
}
`)
	wantNone(t, fs)
}
