package mpi

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Comm is a communicator: an ordered group of ranks.
//
// Collectives run on an analytic model: a LogGP-style cost is charged and
// every rank resumes at max(arrival) + cost. That keeps 512-rank
// multi-round sweeps fast while preserving wait-for-slowest semantics. The
// tests check it against message-passing algorithms over the simulated
// network (oracle_test.go).
//
// Every collective returns an error: with SetCollTimeout armed, a call that
// stalls (a dead or stuck member, a partition) fails with *CollTimeoutError
// instead of waiting forever, except that a Barrier missing only killed
// members returns nil at the timeout.
type Comm struct {
	w       *World
	ranks   []*Rank
	index   map[int]int // world id -> comm rank
	states  map[int]*collState
	callIdx []int
}

func newComm(w *World, ranks []*Rank) *Comm {
	c := &Comm{
		w:       w,
		ranks:   ranks,
		index:   make(map[int]int, len(ranks)),
		states:  make(map[int]*collState),
		callIdx: make([]int, len(ranks)),
	}
	for i, r := range ranks {
		c.index[r.id] = i
	}
	return c
}

// NewComm builds a communicator from the given world rank ids, in order.
func (w *World) NewComm(members []int) *Comm {
	ranks := make([]*Rank, len(members))
	for i, m := range members {
		ranks[i] = w.ranks[m]
	}
	return newComm(w, ranks)
}

// internComm returns a shared communicator for the membership, creating it
// on first use; Comm.Split relies on every member receiving the same
// object.
func (w *World) internComm(members []int) *Comm {
	key := fmt.Sprint(members)
	if c, ok := w.interned[key]; ok {
		return c
	}
	c := w.NewComm(members)
	w.interned[key] = c
	return c
}

// NewSharedComm returns a communicator shared by every caller passing the
// same members and scope, creating it on first use. Distinct scopes yield
// distinct communicators even over identical membership — the resilient
// two-phase write uses a fresh scope per failover epoch so retried
// collectives start from clean rendezvous state instead of colliding with
// the poisoned call indices of a timed-out epoch.
func (w *World) NewSharedComm(members []int, scope string) *Comm {
	key := scope + "|" + fmt.Sprint(members)
	if c, ok := w.interned[key]; ok {
		return c
	}
	c := w.NewComm(members)
	w.interned[key] = c
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// RankOf returns the communicator rank of world rank r, or -1.
func (c *Comm) RankOf(r *Rank) int {
	if i, ok := c.index[r.id]; ok {
		return i
	}
	return -1
}

// Member returns the rank at communicator position i.
func (c *Comm) Member(i int) *Rank { return c.ranks[i] }

// collState tracks one in-flight collective operation.
type collState struct {
	comm    *Comm
	n       int // call index within the communicator
	kind    string
	arrived int
	got     []bool // which comm ranks have contributed
	bytes   int64  // largest per-rank byte count seen, for held completion
	inputs  [][]int64
	waiters []*Rank
	finish  sim.Time
	err     error // terminal timeout error, set at most once
	timer   *sim.Timer
}

// CollTimeoutError is the typed failure a timed-out collective surfaces:
// the operation that stalled plus the world ranks that never arrived (dead,
// partitioned away, or simply still busy).
type CollTimeoutError struct {
	Op      string
	Missing []int
}

// ErrCollTimeout is the sentinel matched by errors.Is for any
// *CollTimeoutError.
var ErrCollTimeout = errors.New("mpi: collective timed out")

func (e *CollTimeoutError) Error() string {
	return fmt.Sprintf("mpi: %s timed out waiting for ranks %v", e.Op, e.Missing)
}

// Is makes errors.Is(err, ErrCollTimeout) match.
func (e *CollTimeoutError) Is(target error) bool { return target == ErrCollTimeout }

// cut reports whether an active network partition separates any two member
// nodes of the communicator.
func (c *Comm) cut() bool {
	if len(c.ranks) < 2 {
		return false
	}
	first := c.ranks[0].node.ID()
	for _, r := range c.ranks[1:] {
		if c.w.fabric.Partitioned(first, r.node.ID()) {
			return true
		}
	}
	return false
}

// syncErr is the analytic rendezvous every collective runs on: each rank
// contributes input, blocks until all have arrived plus the modelled cost,
// and gets all inputs back. It opens and closes the call's collSpan, named
// after kind. When a collective timeout is armed, a per-call cancellable
// timer bounds the wait, and a collective whose communicator spans an
// active partition is held open — completing when the partition heals, or
// failing all participants with *CollTimeoutError when the timer fires
// first. On the fault-free path the timer is always cancelled before
// firing, leaving virtual time untouched.
func (c *Comm) syncErr(r *Rank, kind string, perRankBytes int64, input []int64) ([][]int64, error) {
	// No defer: a rank unwound by Kill never reaches end, so its call stays
	// unbalanced (see collSpan).
	sp := c.beginColl(r, kind)
	inputs, err := c.rendezvous(r, kind, perRankBytes, input)
	sp.end(r)
	return inputs, err
}

// rendezvous is syncErr without the span.
func (c *Comm) rendezvous(r *Rank, kind string, perRankBytes int64, input []int64) ([][]int64, error) {
	r.checkKilled()
	me := c.RankOf(r)
	if me < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in communicator", r.id))
	}
	if len(c.ranks) == 1 {
		return [][]int64{input}, nil
	}
	n := c.callIdx[me]
	c.callIdx[me]++
	st := c.states[n]
	if st == nil {
		st = &collState{
			comm: c, n: n, kind: kind,
			inputs: make([][]int64, len(c.ranks)),
			got:    make([]bool, len(c.ranks)),
		}
		c.states[n] = st
		if d := c.w.collTimeout; d > 0 {
			st.timer = c.w.k.AfterTimer(d, func() { c.w.timeoutColl(st) })
		}
	}
	if st.kind != kind {
		panic(fmt.Sprintf("mpi: mismatched collectives: rank %d calls %s, others called %s", r.id, kind, st.kind))
	}
	if st.err != nil {
		// The call slot already timed out: a straggler fails immediately
		// instead of parking for a timeout of its own, so a rank that fell
		// one collective behind (slow open, receive deadline) resynchronises
		// with the group at the next call rather than trailing forever.
		return st.inputs, st.err
	}
	st.inputs[me] = input
	st.got[me] = true
	st.arrived++
	if perRankBytes > st.bytes {
		st.bytes = perRankBytes
	}
	if st.arrived == len(c.ranks) && !(st.timer != nil && c.cut()) {
		// Last arrival, communicator reachable: everyone resumes after the
		// modelled completion time.
		delete(c.states, n)
		if st.timer != nil {
			st.timer.Stop()
		}
		cost := c.collCost(kind, perRankBytes)
		st.finish = r.proc.Now() + cost
		for _, wr := range st.waiters {
			c.w.k.WakeAt(st.finish, wr.proc)
		}
		r.proc.Sleep(cost)
		return st.inputs, nil
	}
	if st.arrived == len(c.ranks) {
		// All arrived but a partition cuts the communicator: hold the
		// collective open until the fabric heals or the timer fires.
		delete(c.states, n)
		c.w.heldColl = append(c.w.heldColl, st)
	}
	st.waiters = append(st.waiters, r)
	r.collSt = st
	r.proc.Park()
	r.collSt = nil
	r.checkKilled()
	return st.inputs, st.err
}

// timeoutColl fails a stalled collective: every parked participant wakes
// with the typed error, and the call slot is released. Kernel-callback
// context.
func (w *World) timeoutColl(st *collState) {
	if st.err != nil {
		return
	}
	var missing []int
	for i, got := range st.got {
		if !got {
			missing = append(missing, st.comm.ranks[i].id)
		}
	}
	st.err = &CollTimeoutError{Op: st.kind, Missing: missing}
	// The errored state stays registered at its call index: ranks that have
	// not arrived yet must observe the failure (and fail fast) instead of
	// opening a fresh rendezvous that can only time out again.
	w.dropHeld(st)
	for _, wr := range st.waiters {
		w.k.Wake(wr.proc)
	}
	st.waiters = nil
}

// recheckHeld re-evaluates partition-held collectives after every topology
// change, completing those whose communicator became reachable again.
// Held states live in an insertion-ordered slice so completions (and their
// wake events) replay deterministically.
func (w *World) recheckHeld() {
	kept := w.heldColl[:0]
	for _, st := range w.heldColl {
		c := st.comm
		if st.err == nil && st.arrived == len(c.ranks) && !c.cut() {
			if st.timer != nil {
				st.timer.Stop()
			}
			cost := c.collCost(st.kind, st.bytes)
			st.finish = w.k.Now() + cost
			for _, wr := range st.waiters {
				w.k.WakeAt(st.finish, wr.proc)
			}
			st.waiters = nil
			continue
		}
		kept = append(kept, st)
	}
	w.heldColl = kept
}

// dropHeld removes st from the held-collective list.
func (w *World) dropHeld(st *collState) {
	for i, held := range w.heldColl {
		if held == st {
			w.heldColl = append(w.heldColl[:i], w.heldColl[i+1:]...)
			return
		}
	}
}

// collCost models the completion time of a collective once all ranks have
// arrived, following LogGP: per-message software overhead o, wire latency
// L, and per-rank NIC bandwidth for the data terms.
func (c *Comm) collCost(kind string, n int64) sim.Time {
	p := len(c.ranks)
	if p <= 1 {
		return 0
	}
	const o = 1 * sim.Microsecond
	l := c.w.fabric.Latency()
	bw := sim.Rate(3.2 * sim.GBps)
	log2p := sim.Time(bits.Len(uint(p - 1)))
	step := o + l
	switch kind {
	case "barrier":
		return log2p * step
	case "allreduce":
		return log2p * (step + bw.DurationFor(n))
	case "allgather":
		return log2p*step + sim.Time(p-1)*bw.DurationFor(n)
	case "alltoall":
		return sim.Time(p-1)*(o+bw.DurationFor(n)) + l
	default:
		panic("mpi: unknown collective " + kind)
	}
}

// collSpan covers one collective call for both observability layers: a
// tracer span on the rank's timeline plus a latency sample in the
// per-operation histogram. It also carries the entered/completed balance
// behind World.CollBalance: a call that never reaches end (the rank parked
// forever, or unwound by Kill) stays visible as an imbalance.
type collSpan struct {
	c  *Comm
	sp trace.Span
	h  *metrics.Histogram
	t0 sim.Time
}

// beginColl opens a collSpan for one collective call.
func (c *Comm) beginColl(r *Rank, name string) collSpan {
	cs := collSpan{c: c}
	c.w.collStarted[r.id]++
	if tr := c.w.k.Tracer(); tr != nil {
		cs.sp = tr.Begin(r.TraceTrack(tr), "mpi", name, int64(r.proc.Now()))
	}
	if m := c.w.k.Metrics(); m != nil {
		cm := c.w.collMetricsFor(m, name)
		cs.h = cm.ns
		cm.calls.Inc()
		cs.t0 = r.proc.Now()
	}
	return cs
}

// collMetrics is one collective op's cached metric handles.
type collMetrics struct {
	ns    *metrics.Histogram
	calls *metrics.Counter
}

// collMetricsFor resolves (and caches) the handles for one collective op.
// Resolving through the registry canonicalizes the label set on every
// call; the per-op cache keeps the steady-state cost at one map hit.
func (w *World) collMetricsFor(m *metrics.Registry, name string) collMetrics {
	if cm, ok := w.collM[name]; ok {
		return cm
	}
	cm := collMetrics{
		ns: m.Histogram("mpi_coll_ns",
			metrics.L(metrics.KeyLayer, "mpi"), metrics.L(metrics.KeyOp, name)),
		calls: m.Counter("mpi_colls_total",
			metrics.L(metrics.KeyLayer, "mpi"), metrics.L(metrics.KeyOp, name)),
	}
	if w.collM == nil {
		w.collM = make(map[string]collMetrics)
	}
	w.collM[name] = cm
	return cm
}

// end closes the span at the rank's current virtual time.
func (cs collSpan) end(r *Rank) {
	cs.c.w.collDone[r.id]++
	now := r.proc.Now()
	cs.sp.End(int64(now))
	cs.h.Observe(int64(now - cs.t0))
}

// Op is a reduction operator over int64.
type Op func(a, b int64) int64

// Standard reduction operators.
var (
	MaxOp Op = func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	MinOp Op = func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	SumOp Op = func(a, b int64) int64 { return a + b }
	BorOp Op = func(a, b int64) int64 { return a | b }
)

// Barrier blocks until every rank of the communicator has entered
// (MPI_Barrier). A timeout is returned as *CollTimeoutError unless every
// member that never arrived has been killed: then the survivors have nobody
// left to wait for, and Barrier returns nil at the timeout instant. A
// partition or a live member that is stuck still fails the barrier.
func (c *Comm) Barrier(r *Rank) error {
	_, err := c.syncErr(r, "barrier", 0, nil)
	var te *CollTimeoutError
	if !errors.As(err, &te) || len(te.Missing) == 0 {
		return err
	}
	for _, id := range te.Missing {
		if c.w.Alive(id) {
			return err
		}
	}
	return nil
}

// Allreduce combines each rank's vals element-wise with op; every rank
// receives the combined vector (MPI_Allreduce). On a timeout the result is
// nil.
func (c *Comm) Allreduce(r *Rank, vals []int64, op Op) ([]int64, error) {
	inputs, err := c.syncErr(r, "allreduce", int64(8*len(vals)), vals)
	if err != nil {
		return nil, err
	}
	// A completed rendezvous holds every rank's contribution.
	out := make([]int64, len(inputs[0]))
	copy(out, inputs[0])
	for _, in := range inputs[1:] {
		for j := range out {
			out[j] = op(out[j], in[j])
		}
	}
	return out, nil
}

// Allgather collects each rank's vals; result[i] is rank i's contribution
// (MPI_Allgather / MPI_Allgatherv). On a timeout the result is nil.
func (c *Comm) Allgather(r *Rank, vals []int64) ([][]int64, error) {
	inputs, err := c.syncErr(r, "allgather", int64(8*len(vals)), vals)
	if err != nil {
		return nil, err
	}
	// The rendezvous result is returned as-is: the state it lives in is
	// released once the collective completes, and callers treat it as
	// read-only. Copying the outer slice would cost O(ranks) per caller —
	// 400 MB across one 4096-rank collective write.
	return inputs, nil
}

// Alltoall sends send[i] to comm rank i and returns recv where recv[i] is
// the value sent by rank i (MPI_Alltoall with one int64 per pair). This is
// the dissemination step at the start of every two-phase exchange round.
// On a timeout the result is nil.
func (c *Comm) Alltoall(r *Rank, send []int64) ([]int64, error) {
	if len(send) != len(c.ranks) {
		panic("mpi: alltoall send vector must have comm-size entries")
	}
	inputs, err := c.syncErr(r, "alltoall", 8, send)
	if err != nil {
		return nil, err
	}
	me := c.RankOf(r)
	out := make([]int64, len(c.ranks))
	for i, in := range inputs {
		out[i] = in[me]
	}
	return out, nil
}

// Split partitions the communicator by color; ranks with equal color land
// in a new communicator ordered by (key, rank), as MPI_Comm_split. Every
// member must call it; callers with color < 0 (MPI_UNDEFINED) get nil.
// The grouping is computed via an Allgather of (color, key) pairs, so it
// costs one collective, and a timeout of that Allgather is returned with a
// nil communicator.
func (c *Comm) Split(r *Rank, color, key int) (*Comm, error) {
	pairs, err := c.Allgather(r, []int64{int64(color), int64(key)})
	if err != nil || color < 0 {
		return nil, err
	}
	type member struct {
		rank int // position in c
		key  int64
	}
	var members []member
	for i, p := range pairs {
		if p[0] == int64(color) {
			members = append(members, member{rank: i, key: p[1]})
		}
	}
	// Stable order by (key, rank).
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].key < members[j-1].key ||
			(members[j].key == members[j-1].key && members[j].rank < members[j-1].rank)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	ids := make([]int, len(members))
	for i, m := range members {
		ids[i] = c.ranks[m.rank].id
	}
	// All members must share one communicator object so that collective
	// rendezvous state matches; intern by membership.
	return c.w.internComm(ids), nil
}
