package study

// Insight is one of the paper's numbered insights or suggestions, linked
// to the rustprobe component that operationalizes it (empty when the item
// is advice to the Rust project rather than to a tool).
type Insight struct {
	ID        string // "I1".."I11", "S1".."S8"
	Section   string
	Text      string
	Component string // rustprobe package embodying it
}

// Insights is the paper's full catalog.
var Insights = []Insight{
	{"I1", "4.1", "Most unsafe usages are for good or unavoidable reasons; Rust's checks are sometimes too strict and escape hatches are useful.", "internal/unsafety"},
	{"I2", "4.2", "Interior unsafe is a good way to encapsulate unsafe code.", "internal/unsafety"},
	{"I3", "4.3", "Some safety conditions of unsafe code are hard to check; interior unsafe functions often rely on correct inputs/environments rather than explicit checks.", "internal/unsafety"},
	{"I4", "5.1", "Rust's safety mechanisms are very effective at preventing memory bugs: all memory-safety issues involve unsafe code (though many also involve safe code).", "internal/detect/uaf"},
	{"I5", "5.2", "More than half of memory bugs are fixed by changing or conditionally skipping unsafe code; few remove it entirely — unsafe is often unavoidable.", "internal/study"},
	{"I6", "6.1", "Misunderstanding Rust's lifetime rules is a common cause of blocking bugs (implicit unlock at guard-lifetime end).", "internal/detect/doublelock"},
	{"I7", "6.2", "Data sharing follows recognizable patterns, useful for bug-detection tool design.", "internal/study"},
	{"I8", "6.2", "How data is shared is not tied to how non-blocking bugs manifest: sharing can be unsafe while the bug is in safe code.", "internal/study"},
	{"I9", "6.2", "Misusing Rust's unique libraries (RefCell, poisoned Mutex, Arc, channels) is a major non-blocking-bug cause; the libraries' runtime checks catch these.", "internal/interp"},
	{"I10", "6.2", "API design (mutable vs immutable borrow) determines how much the compiler can check: interior mutability with &self hides races from rustc.", "internal/detect/interiormut"},
	{"I11", "6.2", "Fix strategies match traditional languages', so existing automated fixing techniques should port to Rust.", ""},

	{"S1", "4.1", "Export only the true source of unsafety as an unsafe interface, minimizing unsafe surface.", "internal/unsafety"},
	{"S2", "4.2", "Encapsulate unsafe code behind interior-unsafe functions before exposing unsafe interfaces.", "internal/unsafety"},
	{"S3", "4.3", "If a function's safety depends on its caller, mark it unsafe rather than interior unsafe.", "internal/unsafety"},
	{"S4", "4.3", "Restrict interior mutability, especially functions returning references; distinguish it from truly immutable functions.", "internal/detect/interiormut"},
	{"S5", "5.1", "Memory-bug detectors can skip safe code unrelated to unsafe code, cutting false positives and cost.", "internal/detect/uaf"},
	{"S6", "6.1", "IDEs should highlight the location of Rust's implicit unlock (critical-section boundaries).", "internal/visualize"},
	{"S7", "6.1", "Mutex should gain an explicit unlock API (mem::drop of an unsaved guard is inconvenient).", "internal/visualize"},
	{"S8", "6.2", "Review internal mutual exclusion carefully in interior-mutability functions of Sync types.", "internal/detect/interiormut"},
}

// InsightByID returns the catalog entry or nil.
func InsightByID(id string) *Insight {
	for i := range Insights {
		if Insights[i].ID == id {
			return &Insights[i]
		}
	}
	return nil
}
