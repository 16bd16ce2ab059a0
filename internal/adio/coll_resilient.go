package adio

import (
	"errors"
	"fmt"

	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the failover epoch policy of the two-phase engine
// (twoPhase in coll.go). The plain write runs the engine once over the
// file's communicator; the failover policy runs it once per membership
// epoch, so the write survives aggregator death and network partitions.
// Three values, all derived from the e10_resilient_write hint, set the two
// policies apart:
//
//   - membership: each epoch runs over a fresh communicator of the ranks
//     still alive, with aggregators re-placed on it by the same
//     placeAggregators rule the open used;
//   - round-ack: a per-round Allreduce confirms that every surviving
//     aggregator wrote its window. The acked extent set is the unit of
//     progress: a sender stops considering a round's extents pending only
//     once the ack succeeds, so anything an aggregator had in flight when
//     it died is replayed from the sender's retained data next epoch;
//   - receive wait: an aggregator waits for each shuffled message for at
//     most half the collective timeout instead of forever.
//
// Any timed-out collective or receive ends the epoch. The survivors then
// recompute the live membership and the file domains over it
// (deterministically: same survivor set, same domains) and re-exchange
// only the unacked remainder. Re-writing an extent is idempotent: the
// bytes are the same, so byte conservation holds across failover. Unlike
// the plain policy, failover never switches to independent I/O, which has
// no failover of its own.
//
// The policy requires World.SetCollTimeout to be armed; with no timeout a
// collective involving a dead rank waits forever and no epoch ever ends.

// HintResilientWrite enables the failover-capable collective write path
// ("enable"/"disable"). It rides in the hint Extra set, like the e10_*
// cache hints.
const HintResilientWrite = "e10_resilient_write"

// maxFailoverEpochs bounds the epoch loop: each epoch either finishes the
// write, or shrinks the membership / waits out a partition. Repeated
// failure without progress gives up with ErrFailoverExhausted.
const maxFailoverEpochs = 8

// defaultRecvDeadline bounds an aggregator's wait for one shuffled data
// message when no collective timeout is armed to derive it from.
const defaultRecvDeadline = 100 * sim.Millisecond

// ErrFailoverExhausted reports that the resilient write could not complete
// within maxFailoverEpochs membership epochs.
var ErrFailoverExhausted = errors.New("adio: resilient collective write exhausted failover epochs")

// resilientEnabled reports whether the e10_resilient_write hint selects
// the failover policy.
func (f *File) resilientEnabled() bool {
	v, _ := f.hints.Extra.Get(HintResilientWrite)
	return v == "enable"
}

// writeFailover runs the two-phase engine once per membership epoch until
// an epoch completes the write. acked accumulates every extent of this
// rank whose round was acknowledged; each epoch replays only the gaps.
func (f *File) writeFailover(segs []extent.Extent, pre []int64, data []byte) error {
	r, w := f.rank, f.rank.World()
	tr := w.Kernel().Tracer()

	// Per-file resilient-call counter: collective calls run in lockstep on
	// every rank, so the counter agrees across the communicator and keys
	// the per-epoch communicator scopes.
	call := f.resilCall
	f.resilCall++

	// The receive deadline must undercut the collective timeout: an
	// aggregator that gives up on a dead sender has to reach the round-ack
	// before the other survivors' round-ack timer fires, so every survivor
	// observes the same failed collective and enters the next epoch at the
	// same instant. A deadline >= the timeout leaves the aggregator one
	// collective behind for the rest of the call.
	deadline := w.CollTimeout() / 2
	if deadline <= 0 {
		deadline = defaultRecvDeadline
	}

	var acked extent.Set
	for n := 0; n < maxFailoverEpochs; n++ {
		// Survivor membership, in the file communicator's rank order, so
		// every live rank derives the same sub-communicator and the same
		// aggregator placement.
		var live []int
		for i := 0; i < f.comm.Size(); i++ {
			if id := f.comm.Member(i).ID(); w.Alive(id) {
				live = append(live, id)
			}
		}
		scope := fmt.Sprintf("e10res|%s|c%d|e%d", f.path, call, n)
		sub := w.NewSharedComm(live, scope)
		if sub.RankOf(r) < 0 {
			return fmt.Errorf("adio: rank %d not in survivor set", r.ID())
		}
		if n > 0 {
			f.Stats.FailoverEpochs++
			f.metrics().Counter("adio_failover_epochs_total", layerLabel).Inc()
			if tr != nil {
				tr.Instant(r.TraceTrack(tr), "adio", "failover_epoch", int64(r.Now()),
					trace.I("epoch", int64(n)), trace.I("survivors", int64(len(live))))
			}
		}
		ep := epoch{comm: sub, aggs: placeAggregators(sub, f.hints), n: n, acked: &acked, deadline: deadline}
		err := f.twoPhase(ep, segs, pre, data)
		if !errors.Is(err, mpi.ErrCollTimeout) && !errors.Is(err, mpi.ErrRecvTimeout) {
			return err
		}
	}
	return fmt.Errorf("%w (after %d epochs)", ErrFailoverExhausted, maxFailoverEpochs)
}
