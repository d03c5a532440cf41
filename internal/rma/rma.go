// Package rma simulates the one-sided (remote memory access) communication
// model the paper's implementation uses (MPI-3 MPI_Win_allocate / MPI_Put
// with post-start-complete-wait access epochs) inside a single process.
//
// The paper's algorithms are phase-synchronous within a parallel step:
// every rank writes to its neighbors' windows, then waits for its own
// window ("Wait for neighbors to finish writing to Wp") before reading.
// The simulator reproduces exactly this epoch structure: a phase runs every
// rank's local code, during which ranks Put messages toward target windows;
// at the end of the phase all puts are delivered atomically, becoming
// readable in the next phase. Delivery order is deterministic (sorted by
// origin rank), and the sequential and worker-pool engines produce
// bit-identical results.
//
// Two engines execute a phase. The sequential engine runs ranks 0..P-1 in
// order on the calling goroutine. The worker-pool engine (Parallel=true)
// shards the ranks into contiguous chunks over a persistent pool of
// GOMAXPROCS-bounded workers created on the first parallel phase and reused
// across all subsequent phases — no per-phase goroutine spawning. Because a
// rank's phase function touches only that rank's slots (staged puts,
// counters) and messages become visible only at the phase boundary, the two
// engines execute the same state machine and their results are
// bit-identical (asserted by the engine-equivalence tests). Call Close when
// done with a parallel world to release the workers.
//
// Allocation shape. A World allocates its per-rank counters and window
// headers once in NewWorld, and SetNeighborhoods (which the dmem solvers
// always call) sizes every rank's staging buffer and window once from its
// degree, carved with 3-index slices from one flat allocation. A run
// therefore allocates O(1) objects at construction and
// nothing per phase: Put and delivery only copy 32-byte Messages into
// buffers that keep their capacity, delivery scratch is preallocated, and
// payloads are expected to be pointers to caller-owned buffers (boxing a
// pointer into the Payload interface does not allocate). A World without
// registered neighborhoods grows its buffers by append during the first
// phases instead. Under a fault plan, held, duplicated and retained
// messages may overflow a degree-sized buffer (append moves that one
// rank's buffer to the heap) and held or retained payloads are cloned.
//
// A seeded fault-injection plan (faults.go) can perturb delivery — delayed,
// duplicated, and reordered landings, straggler cost multipliers, and rank
// pauses — deterministically and identically on both engines, for the
// robustness studies.
//
// The runtime also does the bookkeeping the paper reports: messages and
// bytes per rank split by tag (solve updates vs explicit residual updates,
// Table 3), and a BSP α-β-γ cost model that converts per-phase maxima of
// (compute + message costs) into simulated wall-clock seconds (DESIGN.md
// §2 explains why this reproduces the paper's wall-clock *shape*).
package rma

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"southwell/internal/obs"
)

// ErrClosed is the panic value of Put and RunPhase on a closed World:
// using a world after Close is a programming error that previously hung on
// the released worker pool, so it now fails loudly instead.
var ErrClosed = errors.New("rma: world used after Close")

// Tag classifies a message for the communication-cost breakdown.
type Tag uint8

const (
	// TagSolve marks messages carrying relaxation updates after a local
	// subdomain solve ("Solve comm" in Table 3).
	TagSolve Tag = iota
	// TagResidual marks explicit residual-norm update messages
	// ("Res comm" in Table 3).
	TagResidual
	numTags
)

// CostModel is the α-β-γ BSP time model: a message costs Alpha + Beta*bytes
// to inject, and local computation costs Gamma per flop. The simulated time
// of a phase is the maximum over ranks; phases accumulate.
type CostModel struct {
	Alpha float64 // seconds per message
	Beta  float64 // seconds per byte
	Gamma float64 // seconds per flop
}

// DefaultCostModel is loosely calibrated to a Cori-class machine: ~1.5 µs
// message latency, ~0.1 ns/byte (≈10 GB/s injection), ~0.25 ns/flop for
// sparse kernels (~4 Gflop/s sustained).
func DefaultCostModel() CostModel {
	return CostModel{Alpha: 1.5e-6, Beta: 1e-10, Gamma: 2.5e-10}
}

// Message is one Put landed in a window. The layout is packed to 32 bytes
// (the payload interface, three int32 fields, and two one-byte fields):
// every Put copies a Message into a staging buffer and every landing
// copies it again into a window, so its size is paid twice per message.
type Message struct {
	Payload any
	From    int32
	To      int32
	Bytes   int32
	Tag     Tag
	// Dup marks a duplicate landing injected by the fault layer: the same
	// window write observed twice in one batch. Receivers treating window
	// writes as idempotent skip these.
	Dup bool
}

// World is a set of P simulated ranks with windows and counters.
type World struct {
	P        int
	Model    CostModel
	Parallel bool // run phases on the persistent worker pool

	inbox  [][]Message // readable this phase
	staged [][]Message // staged[from]: puts issued this phase
	flops  []float64   // per-rank compute charged this phase
	msgs   []int64     // per-rank messages sent this phase
	bytes  []int64     // per-rank bytes sent this phase

	recvMsgs  []int64 // deliver() scratch: per-rank landings, zeroed in place
	recvBytes []int64

	// liveInbox lists the ranks whose inbox is currently nonempty. land
	// maintains it (append on the empty→nonempty transition) and deliver
	// consumes it, so window clears, receiver costs, and the delivery-order
	// audit touch only the windows that were actually written.
	liveInbox []int32
	// allRanks is 0..P-1: the member list of a full-mask phase, so every
	// phase walks one kind of rank list.
	allRanks []int32

	// idleMax cache: max over an idle vector, keyed by slice identity —
	// one O(P) scan per distinct vector per run instead of per phase.
	idleMaxVec []float64
	idleMaxVal float64

	simTime    float64
	totalMsgs  [numTags]int64
	totalBytes [numTags]int64
	phases     int64
	delivered  int64

	// base is the Stats snapshot taken by ResetStats. The raw counters
	// above are monotone for the life of the world (the trace clock and
	// the SimTime-monotone invariant depend on that); Stats subtracts the
	// baseline instead of the counters ever being rewound.
	base Stats

	// trace, when non-nil, receives structured events (obs package). All
	// emits are guarded by a nil check so the disabled path is free; an
	// event for rank p is emitted from p's phase function or from the
	// driver between phases, matching the obs.Tracer concurrency contract.
	trace obs.Tracer

	// chaos, when non-nil, is the installed fault-injection state (see
	// faults.go). All chaos decisions are made in deliver on the calling
	// goroutine, keeping both engines bit-identical.
	chaos *chaosState

	// Worker pool, created lazily on the first parallel phase. Each worker
	// owns a contiguous chunk of ranks and blocks on its own work channel;
	// RunPhase broadcasts the phase function and waits on the barrier.
	poolOnce  sync.Once
	workers   []chan phaseWork
	barrier   sync.WaitGroup
	stop      chan struct{}
	closeOnce sync.Once
	// closed is atomic because a driver may race Close on its way into a
	// phase (see drainWorker); Put and RunPhase read it on every call.
	closed atomic.Bool
}

// phaseWork is one phase as RunPhaseActive hands it to runRange and
// deliver (and broadcasts it to the worker pool): the phase function, the
// membership mask (nil: every rank), the ascending member list (nil: walk
// every rank), and the flop charge of a skipped rank (nil: none).
type phaseWork struct {
	f      func(int)
	active []bool
	list   []int32
	idle   []float64
}

// NewWorld creates a world of p ranks with the given cost model.
func NewWorld(p int, model CostModel) *World {
	ranks := make([]int32, 2*p)
	w := &World{
		P:         p,
		Model:     model,
		inbox:     make([][]Message, p),
		staged:    make([][]Message, p),
		flops:     make([]float64, p),
		msgs:      make([]int64, p),
		bytes:     make([]int64, p),
		recvMsgs:  make([]int64, p),
		recvBytes: make([]int64, p),
		liveInbox: ranks[p : p : 2*p],
		allRanks:  ranks[:p:p],
	}
	for i := range w.allRanks {
		w.allRanks[i] = int32(i)
	}
	return w
}

// SetNeighborhoods registers every rank's access group: nbrs[p] lists the
// ranks whose windows p writes, in ascending order, self excluded. The
// relation must be symmetric (q ∈ nbrs[p] ⇔ p ∈ nbrs[q]), exactly what a
// layout's coupling neighborships provide. Must be called before the first
// phase.
//
// Registration sizes every rank's staging buffer and window once, at its
// degree — a rank puts at most one message per neighbor per phase and so
// receives at most one per neighbor — carved from one flat allocation (a
// staging half and a window half). Each carve is a 3-index slice, so a
// buffer that overflows (fault-injected duplicates, delays and pause
// retention, or a Put outside the group) moves to its own heap allocation
// and never writes into the next rank's slots.
func (w *World) SetNeighborhoods(nbrs [][]int) {
	if len(nbrs) != w.P {
		panic(fmt.Sprintf("rma: SetNeighborhoods got %d lists for P=%d", len(nbrs), w.P))
	}
	e := 0
	for p, list := range nbrs {
		for j, q := range list {
			if q < 0 || q >= w.P || q == p {
				panic(fmt.Sprintf("rma: SetNeighborhoods rank %d: bad neighbor %d (P=%d)", p, q, w.P))
			}
			if j > 0 && list[j-1] >= q {
				panic(fmt.Sprintf("rma: SetNeighborhoods rank %d: neighbors not ascending", p))
			}
		}
		e += len(list)
	}
	for p, list := range nbrs {
		for _, q := range list {
			back := nbrs[q]
			if j := sort.SearchInts(back, p); j == len(back) || back[j] != p {
				panic(fmt.Sprintf("rma: SetNeighborhoods: asymmetric neighborhood (%d lists %d, not vice versa)", p, q))
			}
		}
	}
	stage := make([]Message, 2*e)
	win := stage[e:]
	lo := 0
	for p, list := range nbrs {
		hi := lo + len(list)
		w.staged[p] = stage[lo:lo:hi]
		w.inbox[p] = win[lo:lo:hi]
		lo = hi
	}
}

// Put stages a one-sided write of payload into the window of rank `to`. It
// becomes visible in to's inbox at the start of the next phase. Put must be
// called from rank `from`'s phase function. Payloads should be pointers to
// caller-owned buffers: boxing a pointer does not allocate, and the runtime
// never copies payload contents except to hold them past their phase under
// a fault plan (Cloner).
//
//dslint:hotpath
func (w *World) Put(from, to int, tag Tag, bytes int, payload any) {
	if w.closed.Load() {
		panic(ErrClosed)
	}
	if to < 0 || to >= w.P {
		panic(fmt.Sprintf("rma: Put target %d out of range (P=%d)", to, w.P))
	}
	if uint(bytes) > math.MaxInt32 {
		panic(fmt.Sprintf("rma: Put size %d out of range", bytes))
	}
	w.staged[from] = append(w.staged[from], Message{Payload: payload, From: int32(from), To: int32(to), Bytes: int32(bytes), Tag: tag}) //dslint:ignore hotalloc staging buffers are degree-sized at SetNeighborhoods and keep their capacity across phases (deliver resets to st[:0])
	w.msgs[from]++
	w.bytes[from] += int64(bytes)
	if w.trace != nil {
		w.trace.Emit(obs.Event{
			Kind:  obs.KindPut,
			Rank:  int32(from),
			A:     int32(to),
			Tag:   uint8(tag),
			I1:    int64(bytes),
			Ts:    w.simTime,
			Phase: w.phases,
		})
	}
}

// Charge records flops of local computation for rank in the current phase.
//
//dslint:hotpath
func (w *World) Charge(rank int, flops float64) {
	w.flops[rank] += flops
}

// Inbox returns the messages delivered to rank at the last phase boundary.
// The slice is valid until the next phase boundary.
//
//dslint:hotpath
func (w *World) Inbox(rank int) []Message {
	return w.inbox[rank]
}

// LiveInboxes returns the ranks whose inbox is currently nonempty, in
// first-landing order, so boundary scans over P ranks can instead walk the
// handful of windows that were actually written. The slice is valid until
// the next phase boundary and must not be mutated.
//
//dslint:hotpath
func (w *World) LiveInboxes() []int32 {
	return w.liveInbox
}

// SetTracer installs (or, with nil, removes) a structured-event tracer.
// Install before the first phase; the tracer must follow the obs.Tracer
// concurrency contract. Tracing changes no observable runtime behavior:
// results, message counts, and SimTime are bit-identical with it on or off.
func (w *World) SetTracer(t obs.Tracer) { w.trace = t }

// Tracer returns the installed tracer (nil when tracing is off), so layers
// above the runtime (dmem) can emit algorithm-level events on the same
// clock.
func (w *World) Tracer() obs.Tracer { return w.trace }

// Now returns the simulated clock: cumulative α-β-γ seconds since the
// world was created. Unlike Stats().SimTime it is never rewound by
// ResetStats, which is what makes it a valid trace timestamp.
func (w *World) Now() float64 { return w.simTime }

// PhaseIndex returns the number of completed phases since world creation
// (also monotone across ResetStats).
func (w *World) PhaseIndex() int64 { return w.phases }

// RunPhase executes one access epoch over every rank: the full-mask case
// of RunPhaseActive. Both engines produce bit-identical results: f(p) may
// only touch rank p's state, and cross-rank data moves exclusively through
// Put at the phase boundary.
//
//dslint:hotpath
func (w *World) RunPhase(f func(rank int)) {
	w.RunPhaseActive(nil, nil, nil, f)
}

// RunPhaseActive executes one access epoch: f runs for every rank with
// active[p] set (every rank when active is nil), sequentially or sharded
// over the persistent worker pool when w.Parallel is set; then all staged
// puts are delivered and the phase's simulated time is accounted. This is
// the runtime half of the active-set stepping engine (DESIGN.md §14).
//
// Contract: f(p) may only touch rank p's state, and for every inactive
// rank f would have sent no messages, mutated no state, and charged
// exactly idle[p] flops (0 when idle is nil). idle[p] must also
// lower-bound the flop charge of every rank that does execute f (it is
// the unconditional part of the phase), and the vector must not change
// between phases (idleMax caches its maximum). Running a superset of the
// minimal active set is always safe: the full mask is RunPhase. Paused
// ranks (FaultPlan.Pauses) neither run nor take the idle charge.
//
// actList, when non-nil, lists exactly the ranks with active[p] set,
// ascending. It makes the phase cost O(active work): dispatch, the
// staged-put sweep, and the cost fold walk the list instead of all P, and
// the skipped ranks' compute cost is folded analytically (see deliver)
// instead of written per rank. Passing nil is always correct (every rank
// is walked and the skipped ones are charged idle[p] one by one); passing
// a stale or unsorted list is not. Under a fault plan or a tracer the list
// is ignored: straggler multipliers and KindRankCost rows are per rank.
//
//dslint:hotpath
func (w *World) RunPhaseActive(active []bool, actList []int32, idle []float64, f func(rank int)) {
	if w.closed.Load() {
		panic(ErrClosed)
	}
	if w.chaos != nil || w.trace != nil {
		actList = nil
	}
	if ch := w.chaos; ch != nil {
		ch.markPaused(w.phases)
	}
	pw := phaseWork{f: f, active: active, list: actList, idle: idle}
	if w.Parallel && w.P > 1 {
		w.poolOnce.Do(w.startPool) //dslint:ignore hotalloc method value for one-time pool start; Once skips it on every later phase
		w.barrier.Add(len(w.workers))
		for _, c := range w.workers {
			c <- pw
		}
		w.barrier.Wait()
	} else {
		w.runRange(0, w.P, pw)
	}
	w.deliver(pw)
}

// runRange runs the phase body over the members in ranks [lo, hi): the
// whole world on the sequential engine, one worker's contiguous chunk on
// the pool. Members are visited in ascending order and each rank's branch
// is a pure function of (active, pausedNow, idle), so chunk boundaries
// never influence the output and the engines stay bit-identical.
//
//dslint:hotpath
func (w *World) runRange(lo, hi int, pw phaseWork) {
	ranks := pw.list
	if ranks == nil {
		ranks = w.allRanks
	}
	ch := w.chaos
	for _, p32 := range ranks[lowerBound(ranks, int32(lo)):] {
		p := int(p32)
		if p >= hi {
			break
		}
		switch {
		case ch != nil && ch.pausedNow[p]:
			// Descheduled: the phase function does not run, and the rank is
			// charged nothing.
		case pw.active == nil || pw.active[p]:
			pw.f(p)
		case pw.idle != nil:
			w.flops[p] += pw.idle[p]
		}
	}
}

// lowerBound returns the first index in the ascending list whose value is
// >= x (len(list) if none). Hand-rolled so the hot path stays closure- and
// allocation-free.
func lowerBound(list []int32, x int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// startPool creates the persistent workers: at most GOMAXPROCS goroutines,
// each owning a contiguous chunk of ranks for its lifetime. Workers survive
// across phases (and across solver steps) until Close.
//
//dslint:ignore hotalloc one-time worker-pool construction behind poolOnce
func (w *World) startPool() {
	n := runtime.GOMAXPROCS(0)
	if n > w.P {
		n = w.P
	}
	w.stop = make(chan struct{})
	chunk := (w.P + n - 1) / n
	for lo := 0; lo < w.P; lo += chunk {
		hi := lo + chunk
		if hi > w.P {
			hi = w.P
		}
		ch := make(chan phaseWork, 1)
		w.workers = append(w.workers, ch)
		go func(lo, hi int, ch <-chan phaseWork) {
			for {
				select {
				case pw := <-ch:
					w.runRange(lo, hi, pw)
					w.barrier.Done()
				case <-w.stop:
					w.drainWorker(ch)
					return
				}
			}
		}(lo, hi, ch)
	}
}

// drainWorker consumes any work broadcast concurrently with Close and
// signals the barrier for it, so a driver racing Close on its way into a
// phase blocks on barrier.Wait only until the drain — and then observes
// closed and panics with ErrClosed instead of hanging.
func (w *World) drainWorker(ch <-chan phaseWork) {
	for {
		select {
		case <-ch:
			w.barrier.Done()
		default:
			return
		}
	}
}

// Close releases the worker pool. It is safe to call multiple times and on
// worlds that never ran a parallel phase. Close must not race with
// RunPhase. After Close, Put, RunPhase, and RunPhaseActive panic with
// ErrClosed instead of hanging on the released workers.
func (w *World) Close() {
	w.closeOnce.Do(func() {
		w.closed.Store(true)
		if w.stop != nil {
			close(w.stop)
		}
	})
}

// deliver closes a phase: it moves staged puts into inboxes (ordered by
// origin rank) and accumulates the phase's simulated time. The time is the
// BSP h-relation cost: per rank, compute plus message costs counting both
// injections and landings (a window write occupies the target's NIC even
// though the target CPU is not involved), maximized over ranks.
//
// Every loop walks only the touched ranks: the phase's members (pw.list,
// or every rank for a full-mask, chaos, or traced phase) and the windows
// that were written (liveInbox). With a member list, a skipped rank's
// phase cost is exactly Gamma·idle[p] (its message terms are zero), so a
// single Gamma·max(idle) term reproduces the per-rank maximum bit for bit
// — max(c·a, c·b) = c·max(a,b) for the non-negative finite costs the model
// produces — and the max may be taken over all ranks because idle[p]
// lower-bounds every executing rank's own charge (RunPhaseActive
// contract), and IEEE multiply-by-nonnegative and add-nonnegative are
// monotone. A skipped rank that received a landing is costed in full.
//
// A fault plan and a tracer hook in per rank and per message: chaos holds
// back, duplicates, and reorders landings, retains the windows of paused
// ranks, and applies straggler multipliers — all decided here, on the
// calling goroutine, so both engines see the same schedule — and the
// tracer gets each rank's cost split and the phase span.
//
// deliver is allocation-free at steady state: inboxes and staged slices
// keep their capacity, and the landing counters are preallocated scratch.
//
//dslint:hotpath
func (w *World) deliver(pw phaseWork) {
	ch := w.chaos
	ranks := pw.list
	if ranks == nil {
		ranks = w.allRanks
	}
	// Clear last phase's windows. One-sided writes to a paused rank's
	// window persist until the rank next runs an epoch and can read them.
	kept := w.liveInbox[:0]
	for _, p := range w.liveInbox {
		if ch != nil && ch.pausedNow[p] {
			kept = append(kept, p) //dslint:ignore hotalloc compacts liveInbox in place, never grows
			continue
		}
		in := w.inbox[p]
		for i := range in {
			in[i].Payload = nil // do not retain payloads past their phase
		}
		w.inbox[p] = in[:0]
	}
	w.liveInbox = kept
	if ch != nil {
		w.openChaosBatch(ch)
	}
	// Only members can have staged puts (an inactive rank's phase sends
	// nothing), and ranks is ascending, so delivery is in sender order.
	for _, from := range ranks {
		st := w.staged[from]
		for i := range st {
			m := &st[i]
			w.totalMsgs[m.Tag]++
			w.totalBytes[m.Tag] += int64(m.Bytes)
			if ch == nil {
				w.land(*m)
			} else {
				w.landChaos(ch, m)
			}
			m.Payload = nil
		}
		w.staged[from] = st[:0]
	}
	if ch != nil {
		w.reorderChaosBatch(ch)
	}

	maxCost := 0.0
	if pw.list != nil && pw.idle != nil {
		maxCost = w.Model.Gamma * w.idleMax(pw.idle)
	}
	for _, p := range ranks {
		c := w.rankCost(int(p), w.flops[p])
		if ch != nil {
			c *= ch.slowAt(int(p), w.phases)
		}
		if c > maxCost {
			maxCost = c
		}
		if w.trace == nil {
			w.clearCounters(int(p))
		}
	}
	if pw.list != nil {
		for _, p := range w.liveInbox {
			fl := w.flops[p] // 0 for a skipped receiver: no idle writes with a list
			if !pw.active[p] && pw.idle != nil {
				fl = pw.idle[p]
			}
			if c := w.rankCost(int(p), fl); c > maxCost {
				maxCost = c
			}
			w.clearCounters(int(p))
		}
	}
	w.simTime += maxCost
	w.phases++
	if w.trace != nil {
		w.traceCosts(maxCost)
	}
	if ch != nil {
		// Chaos delivery is intentionally not origin-ordered (delays and
		// reordering are the point); skip the order audit below.
		return
	}
	// Origin order is deterministic because delivery iterates senders in
	// ascending rank order; verify cheaply over the written windows only.
	for _, p := range w.liveInbox {
		in := w.inbox[p]
		for i := 1; i < len(in); i++ {
			if in[i].From < in[i-1].From {
				//dslint:ignore hotalloc defensive re-sort, unreachable while delivery iterates senders in ascending rank order
				sort.SliceStable(in, func(a, b int) bool { return in[a].From < in[b].From })
				break
			}
		}
	}
}

// rankCost is rank p's α-β-γ cost for the phase being delivered, with fl
// flops of compute (before any straggler multiplier).
func (w *World) rankCost(p int, fl float64) float64 {
	h := float64(w.msgs[p] + w.recvMsgs[p])
	hb := float64(w.bytes[p] + w.recvBytes[p])
	return w.Model.Gamma*fl + w.Model.Alpha*h + w.Model.Beta*hb
}

// clearCounters zeroes rank p's per-phase compute and message counters.
func (w *World) clearCounters(p int) {
	w.flops[p] = 0
	w.msgs[p] = 0
	w.bytes[p] = 0
	w.recvMsgs[p] = 0
	w.recvBytes[p] = 0
}

// traceCosts is deliver's tracer hook, run once the phase's time is
// accounted: one KindRankCost row per rank that computed or communicated
// (with the γ/α/β terms split, so the rank whose total tracks the phase
// maximum is the SimTime winner), then the phase span. A traced phase
// walks every rank, so it also clears every rank's counters.
func (w *World) traceCosts(maxCost float64) {
	var landings int64
	for p := 0; p < w.P; p++ {
		landings += w.recvMsgs[p]
		if w.flops[p] != 0 || w.msgs[p] != 0 || w.recvMsgs[p] != 0 {
			mult := 1.0
			if ch := w.chaos; ch != nil {
				mult = ch.slowAt(p, w.phases-1)
			}
			fc := w.Model.Gamma * w.flops[p] * mult
			mc := w.Model.Alpha * float64(w.msgs[p]+w.recvMsgs[p]) * mult
			bc := w.Model.Beta * float64(w.bytes[p]+w.recvBytes[p]) * mult
			w.trace.Emit(obs.Event{
				Kind:  obs.KindRankCost,
				Rank:  int32(p),
				Ts:    w.simTime,
				Dur:   fc + mc + bc,
				V1:    fc,
				V2:    mc,
				V3:    bc,
				A:     int32(w.msgs[p]),
				B:     int32(w.recvMsgs[p]),
				I1:    w.bytes[p],
				I2:    w.recvBytes[p],
				Phase: w.phases - 1,
			})
		}
		w.clearCounters(p)
	}
	w.trace.Emit(obs.Event{
		Kind:  obs.KindPhase,
		Rank:  obs.ControlRank,
		Ts:    w.simTime,
		Dur:   maxCost,
		I1:    landings,
		Phase: w.phases - 1,
	})
}

// idleMax returns max(idle), cached by slice identity: the engine reuses
// one immutable idle vector per phase kind for a whole run, so the O(P)
// scan happens once per run rather than once per phase. Callers must not
// mutate a vector between phases (RunPhaseActive contract).
func (w *World) idleMax(idle []float64) float64 {
	if len(idle) == 0 {
		return 0
	}
	if w.idleMaxVec != nil && &w.idleMaxVec[0] == &idle[0] {
		return w.idleMaxVal
	}
	m := 0.0
	for _, v := range idle {
		if v > m {
			m = v
		}
	}
	w.idleMaxVec, w.idleMaxVal = idle, m
	return m
}

// emitFault records a fault-layer action on the control track. Fault
// decisions are made on the driver goroutine in deliver, so these emits
// are always race-free.
func (w *World) emitFault(flag uint8, from, to int32) {
	if w.trace == nil {
		return
	}
	w.trace.Emit(obs.Event{
		Kind:  obs.KindFault,
		Rank:  obs.ControlRank,
		Flag:  flag,
		A:     from,
		B:     to,
		Ts:    w.simTime,
		Phase: w.phases,
	})
}

// land appends one message to its target window and charges the landing
// (the write occupies the target's NIC even though its CPU is not
// involved).
func (w *World) land(m Message) {
	if len(w.inbox[m.To]) == 0 {
		w.liveInbox = append(w.liveInbox, m.To) //dslint:ignore hotalloc preallocated to cap P in NewWorld; entries are distinct ranks, so len never exceeds P
	}
	w.inbox[m.To] = append(w.inbox[m.To], m) //dslint:ignore hotalloc windows are degree-sized at SetNeighborhoods and keep their capacity across phases (deliver resets to in[:0]); only chaos overflow grows them
	w.recvMsgs[m.To]++
	w.recvBytes[m.To] += int64(m.Bytes)
	w.delivered++
	if w.trace != nil {
		e := obs.Event{
			Kind:  obs.KindDeliver,
			Rank:  m.To,
			A:     m.From,
			Tag:   uint8(m.Tag),
			I1:    int64(m.Bytes),
			Ts:    w.simTime,
			Phase: w.phases,
		}
		if m.Dup {
			e.Flag = obs.FlagDup
		}
		w.trace.Emit(e)
	}
}

// Stats is the cumulative communication record of a world.
type Stats struct {
	SimTime    float64
	Phases     int64
	SolveMsgs  int64
	ResMsgs    int64
	SolveBytes int64
	ResBytes   int64
	// Delivered counts landings (including fault-injected duplicates);
	// without faults it equals TotalMsgs once all messages have arrived.
	Delivered int64
	// Fault-injection counters, all zero without an installed plan.
	DelayedMsgs      int64 // messages held back by the fault layer
	DupMsgs          int64 // duplicate landings injected
	ReorderedBatches int64 // delivery batches shuffled
	PausedRankPhases int64 // rank-phases spent descheduled
}

// TotalMsgs returns all messages sent so far.
func (s Stats) TotalMsgs() int64 { return s.SolveMsgs + s.ResMsgs }

// CommCost is the paper's §4.3 metric: total messages divided by ranks.
// A non-positive rank count yields 0 rather than NaN/±Inf, so a malformed
// caller cannot poison a table cell silently.
func (s Stats) CommCost(p int) float64 {
	if p <= 0 {
		return 0
	}
	return float64(s.TotalMsgs()) / float64(p)
}

// rawStats snapshots the monotone lifetime counters, ignoring any
// ResetStats baseline.
func (w *World) rawStats() Stats {
	s := Stats{
		SimTime:    w.simTime,
		Phases:     w.phases,
		SolveMsgs:  w.totalMsgs[TagSolve],
		ResMsgs:    w.totalMsgs[TagResidual],
		SolveBytes: w.totalBytes[TagSolve],
		ResBytes:   w.totalBytes[TagResidual],
		Delivered:  w.delivered,
	}
	if ch := w.chaos; ch != nil {
		s.DelayedMsgs = ch.delayed
		s.DupMsgs = ch.duped
		s.ReorderedBatches = ch.reordered
		s.PausedRankPhases = ch.paused
	}
	return s
}

// Stats returns a snapshot of the counters since the last ResetStats (or
// world creation).
func (w *World) Stats() Stats {
	s := w.rawStats()
	b := w.base
	s.SimTime -= b.SimTime
	s.Phases -= b.Phases
	s.SolveMsgs -= b.SolveMsgs
	s.ResMsgs -= b.ResMsgs
	s.SolveBytes -= b.SolveBytes
	s.ResBytes -= b.ResBytes
	s.Delivered -= b.Delivered
	s.DelayedMsgs -= b.DelayedMsgs
	s.DupMsgs -= b.DupMsgs
	s.ReorderedBatches -= b.ReorderedBatches
	s.PausedRankPhases -= b.PausedRankPhases
	return s
}

// ResetStats restarts the Stats window (e.g. between a setup phase and a
// measured solve). It moves the baseline rather than rewinding counters:
// the internal clock stays monotone for the life of the world, so a
// mid-run reset can never make trace timestamps — or a SimTime series read
// through Stats after the reset — go backwards relative to each other.
func (w *World) ResetStats() {
	w.base = w.rawStats()
}
