package study

// This file records the paper's published numbers verbatim. Everything the
// report package prints is re-derived from the expanded bug database in
// bugs.go; the literals here are the generation spec and the test oracle.

// ProjectMeta is one Table 1 row.
type ProjectMeta struct {
	Project   Project
	StartTime string // YYYY/MM
	Stars     int
	Commits   int
	KLOC      int
	Mem       int // memory-safety bugs
	Blk       int // blocking bugs
	NBlk      int // non-blocking bugs
}

// Table1 is the studied-software table. The libraries row aggregates the
// five studied libraries; per the caption, Stars/Commits/KLOC are maxima
// among them.
var Table1 = []ProjectMeta{
	{Servo, "2012/02", 14574, 38096, 271, 14, 13, 18},
	{Tock, "2015/05", 1343, 4621, 60, 5, 0, 2},
	{Ethereum, "2015/11", 5565, 12121, 145, 2, 34, 4},
	{TiKV, "2016/01", 5717, 3897, 149, 1, 4, 3},
	{Redox, "2016/08", 11450, 2129, 199, 20, 2, 3},
	{Libraries, "2010/07", 3106, 2402, 25, 7, 6, 10},
}

// AdvisoryMemBugs and AdvisoryNBlkBugs are the 22 CVE/RustSec bugs, which
// Table 1's caption counts separately (21 memory + 1 non-blocking closes
// the 70/100 totals).
const (
	AdvisoryMemBugs  = 21
	AdvisoryNBlkBugs = 1
)

// Table2Cell is one (propagation, effect) count with its interior-unsafe
// sub-count (the parenthesized numbers).
type Table2Cell struct {
	Prop     MemProp
	Effect   MemEffect
	Count    int
	Interior int
}

// Table2 is the memory-bug category table, exactly as published.
var Table2 = []Table2Cell{
	{PropSafe, EffectUAF, 1, 0},

	{PropUnsafe, EffectBuffer, 4, 1},
	{PropUnsafe, EffectNull, 12, 4},
	{PropUnsafe, EffectInvalidFree, 5, 3},
	{PropUnsafe, EffectUAF, 2, 2},

	{PropSafeToUnsafe, EffectBuffer, 17, 10},
	{PropSafeToUnsafe, EffectInvalidFree, 1, 0},
	{PropSafeToUnsafe, EffectUAF, 11, 4},
	{PropSafeToUnsafe, EffectDoubleFree, 2, 2},

	{PropUnsafeToSafe, EffectUninit, 7, 0},
	{PropUnsafeToSafe, EffectInvalidFree, 4, 0},
	{PropUnsafeToSafe, EffectDoubleFree, 4, 0},
}

// MemFixCounts is §5.2's fix-strategy distribution over the 70 memory bugs.
var MemFixCounts = map[MemFix]int{
	FixCondSkip: 30,
	FixLifetime: 22,
	FixOperands: 9,
	FixOtherMem: 9,
}

// Table3 is the blocking-bug table: rows are projects, columns sync
// primitives. Totals: Mutex&RwLock 38, Condvar 10, Channel 6, Once 1,
// Other 4 = 59.
var Table3 = map[Project]map[SyncPrimitive]int{
	Servo:     {PrimMutex: 6, PrimCondvar: 0, PrimChannel: 5, PrimOnce: 0, PrimOther: 2},
	Tock:      {},
	Ethereum:  {PrimMutex: 27, PrimCondvar: 6, PrimChannel: 0, PrimOnce: 0, PrimOther: 1},
	TiKV:      {PrimMutex: 3, PrimCondvar: 1, PrimChannel: 0, PrimOnce: 0, PrimOther: 0},
	Redox:     {PrimMutex: 2, PrimCondvar: 0, PrimChannel: 0, PrimOnce: 0, PrimOther: 0},
	Libraries: {PrimMutex: 0, PrimCondvar: 3, PrimChannel: 1, PrimOnce: 1, PrimOther: 1},
}

// MutexCauseCounts splits the 38 Mutex&RwLock blocking bugs by cause
// (§6.1 text: 30 double lock, 7 conflicting orders, 1 forgot unlock).
var MutexCauseCounts = map[BlockingCause]int{
	CauseDoubleLock:       30,
	CauseConflictingOrder: 7,
	CauseForgotUnlock:     1,
}

// CondvarCauseCounts splits the 10 Condvar bugs (8 missing notify, 2
// mutual wait).
var CondvarCauseCounts = map[BlockingCause]int{
	CauseMissingNotify: 8,
	CauseWaitWhileLock: 2,
}

// ChannelCauseCounts splits the 6 channel bugs (1 no sender, 3 all-wait,
// 1 recv-while-lock, 1 bounded-full).
var ChannelCauseCounts = map[BlockingCause]int{
	CauseChanNoSender:  1,
	CauseChanAllWait:   3,
	CauseChanWhileLock: 1,
	CauseChanFull:      1,
}

// BlkFixCounts: 51/59 fixed by adjusting synchronization, of which 21 by
// adjusting the guard's lifetime; 8 by other strategies.
var BlkFixCounts = map[BlkFix]int{
	BlkFixAdjustSync:    30, // 51 total sync adjustments minus the 21 below
	BlkFixGuardLifetime: 21,
	BlkFixOtherStrategy: 8,
}

// ExplicitDropUsages is §6.1's count of mem::drop(guard) usages found in
// the studied applications (9 to avoid double lock, 1 to avoid conflicting
// orders, 1 other).
const ExplicitDropUsages = 11

// Table4 is the non-blocking data-sharing table (38 shared-memory bugs;
// the MSG column holds the 3 message-passing bugs).
var Table4 = map[Project]map[ShareMode]int{
	Servo:     {ShareGlobal: 1, SharePointer: 7, ShareSync: 1, ShareOSHw: 0, ShareAtomic: 0, ShareMutex: 7, ShareMessage: 2},
	Tock:      {ShareOSHw: 2},
	Ethereum:  {ShareAtomic: 1, ShareMutex: 2, ShareMessage: 1},
	TiKV:      {ShareOSHw: 1, ShareAtomic: 1, ShareMutex: 1},
	Redox:     {ShareGlobal: 1, ShareOSHw: 2},
	Libraries: {ShareGlobal: 1, SharePointer: 5, ShareSync: 2, ShareAtomic: 3},
}

// Non-blocking aggregate facts (§6.2 text).
const (
	NBlkUnsynchronized = 17 // no synchronization at all (all unsafe sharing)
	NBlkWrongSync      = 21 // synchronized, but wrongly
	NBlkInSafeCode     = 25 // manifest in safe code
	NBlkInteriorMut    = 13 // caused by improper interior mutability
	NBlkLibMisuse      = 7  // misuse of Rust-unique libraries
)

// NBlkFixCounts is §6.2's fix distribution (sums to 38; the 3
// message-passing bugs are included in these strategies).
var NBlkFixCounts = map[NBlkFix]int{
	NBlkFixAtomicity:  20,
	NBlkFixOrdering:   10,
	NBlkFixAvoidShare: 5,
	NBlkFixLocalCopy:  1,
	NBlkFixAppLogic:   2,
}

// Unsafe-usage statistics (§4).
type UnsafeCounts struct {
	Regions int
	Fns     int
	Traits  int
}

// Total reports the combined count.
func (u UnsafeCounts) Total() int { return u.Regions + u.Fns + u.Traits }

// AppUnsafe and StdUnsafe are the §4 headline counts.
var (
	AppUnsafe = UnsafeCounts{Regions: 3665, Fns: 1302, Traits: 23}
	StdUnsafe = UnsafeCounts{Regions: 1581, Fns: 861, Traits: 12}
)

// UnsafeSample describes the 600 sampled app usages (400 interior-unsafe
// regions + 200 unsafe functions) plus 250 std interior-unsafe samples.
const (
	SampledAppUsages    = 600
	SampledAppInterior  = 400
	SampledAppUnsafeFns = 200
	SampledStdInterior  = 250
)

// Operation-kind percentages over the sampled usages (§4.1).
var UnsafeOpPercent = map[string]int{
	"memory operations":  66,
	"calling unsafe fns": 29,
	"other":              5,
}

// Purpose percentages over the sampled usages (§4.1).
var UnsafePurposePercent = map[string]int{
	"code reuse":         42,
	"performance":        22,
	"cross-thread share": 14,
	"other check bypass": 22,
}

// No-compile-error removals: 32 sampled usages (5%) compile without
// `unsafe`; 21 kept for consistency, 11 as warnings, of which 5 label
// struct constructors (50 such constructors in std).
const (
	RemovableUnsafe         = 32
	RemovableForConsistency = 21
	RemovableAsWarning      = 11
	WarningCtorsInApps      = 5
	WarningCtorsInStd       = 50
)

// Unsafe removal study (§4.2): 130 removals from 108 commits.
const (
	RemovalCommits = 108
	RemovalCases   = 130
)

// RemovalPurposePercent breaks down why unsafe was removed.
var RemovalPurposePercent = map[string]int{
	"improve memory safety": 61,
	"better code structure": 24,
	"improve thread safety": 10,
	"bug fixing":            3,
	"unnecessary usage":     2,
}

// Removal destinations: 43 became fully safe; the rest became interior
// unsafe via std (48), self-implemented (29), or third-party (10).
var RemovalDestinations = map[string]int{
	"fully safe":                43,
	"std interior unsafe":       48,
	"own interior unsafe":       29,
	"3rd-party interior unsafe": 10,
}

// Interior-unsafe encapsulation audit (§4.3).
const (
	StdInteriorNoExplicitCheckPct = 58 // % of 250 std fns with no explicit check
	StdInteriorMemConditionPct    = 69 // % requiring valid memory/UTF-8
	StdInteriorLifetimeCondPct    = 15 // % requiring lifetime/ownership conditions
	BadEncapsulations             = 19 // improperly encapsulated interior unsafe
	BadEncapsStd                  = 5
	BadEncapsApps                 = 14
	BadEncapsNoRetCheck           = 4 // unchecked external-call return values
	BadEncapsParamDeref           = 4 // unchecked parameter deref/index
)

// Detector results (§7).
const (
	UAFBugsFound      = 4 // previously unknown use-after-free bugs
	UAFFalsePositives = 3
	// SafeDrop-style precise mode (the path-sensitive drop-and-alias
	// refuter): same 4 true positives, all 3 planted false-positive
	// patterns (fp_context, fp_flow, fp_path) refuted.
	UAFPreciseBugsFound      = 4
	UAFPreciseFalsePositives = 0
	DoubleLockBugsFound      = 6
	DoubleLockFalsePos       = 0
	// §6.2 extension: seeded non-blocking data races the thread-escape +
	// lockset detector must find in the patterns corpus (one per studied
	// project), with no reports on the synchronized fixed variants.
	RaceBugsFound = 5
	RaceFalsePos  = 0
	// §6.1 extension: the non-double-lock blocking shapes (channel
	// hold-and-wait, all-ends-waiting through channel parameters,
	// orphaned recv, Condvar lost signal — including the param-rooted
	// wait variant — and Once reentrancy through closure bindings)
	// seeded in the patterns corpus, with no reports on the paired
	// fixed variants or the app-scale clean modules.
	BlockingBugsFound = 9
	BlockingFalsePos  = 0
)

// BugsFixedAfter2016 is Figure 2's headline: 145 of the 170 studied bugs
// were patched after Rust stabilized (2016).
const BugsFixedAfter2016 = 145
