package adio

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// layerLabel is the metrics label shared by every ADIO series.
var layerLabel = metrics.L(metrics.KeyLayer, "adio")

// metrics returns the kernel-owned registry (nil when disabled).
func (f *File) metrics() *metrics.Registry {
	return f.rank.World().Kernel().Metrics()
}

// tagDataBase is the tag space for two-phase data-exchange messages.
const tagDataBase = 1 << 27

// WriteStridedColl is ADIOI_GEN_WriteStridedColl, the collective write
// entry point (Figure 2 of the paper). segs is this rank's flattened file
// access (sorted, non-overlapping extents); data optionally carries the
// concatenated payload bytes in segment order. Payload use is
// all-or-nothing per communicator: either every rank passes real bytes
// (verification mode) or every rank passes nil (metadata-only mode);
// mixing the two writes zeros for the nil ranks' extents.
//
// The plain write runs the two-phase engine (twoPhase) once over the
// file's communicator. With the e10_resilient_write hint the same engine
// runs under the failover epoch policy instead (coll_resilient.go).
func (f *File) WriteStridedColl(segs []extent.Extent, data []byte) error {
	r := f.rank
	total, err := validateSegs(segs)
	if err != nil {
		return err
	}
	if data != nil && int64(len(data)) != total {
		return fmt.Errorf("adio: payload length %d != segment total %d", len(data), total)
	}
	failover := f.resilientEnabled()
	f.Stats.CollWrites++
	f.metrics().Counter("adio_coll_writes_total", layerLabel).Inc()

	if tr := r.World().Kernel().Tracer(); tr != nil {
		name := "coll_write"
		if failover {
			name = "coll_write_resilient"
		}
		csp := tr.Begin(r.TraceTrack(tr), "adio", name, int64(r.Now()))
		defer func() {
			csp.End(int64(r.Now()), trace.I("segs", int64(len(segs))), trace.I("bytes", total))
		}()
	}

	pre := payloadIndex(segs, data != nil)
	if failover {
		return f.writeFailover(segs, pre, data)
	}
	return f.twoPhase(epoch{comm: f.comm, aggs: f.aggList}, segs, pre, data)
}

// epoch is one membership epoch of the two-phase write: the communicator
// it runs over, the aggregators placed on it, and the policy values that
// tell the plain write from the failover one.
type epoch struct {
	comm *mpi.Comm
	aggs []int // comm ranks acting as aggregators (placeAggregators)
	n    int   // epoch number; keys the data-tag space

	// Failover policy only. acked collects this rank's round-acknowledged
	// extents; a nil set turns the per-round ack off, keeps the whole
	// access pending and lets romio_cb_write select independent I/O.
	// deadline bounds each wait for a shuffled message (0 waits forever).
	acked    *extent.Set
	deadline sim.Time
}

// Round-ack and error codes, combined with MaxOp so the worst status wins.
const (
	ackOK      = 0 // round written (and acknowledged)
	ackIOErr   = 1 // an aggregator's WriteContig failed: fatal
	ackTimeout = 2 // an aggregator missed a shuffle message: retry epoch
)

// errRemoteWrite reports a write failure seen only through the error-code
// exchange.
var errRemoteWrite = errors.New("adio: collective write failed on another rank")

// twoPhase is the extended two-phase write of §II-A over one epoch: (1)
// all ranks exchange start/end offsets; (2) the interleaving check selects
// collective vs independent I/O, overridable with romio_cb_write; (3) the
// accessed range is split into file domains by the driver's partitioning
// strategy; (4) ntimes rounds of Alltoall dissemination, Isend/Irecv data
// shuffle, collective-buffer packing and WriteContig; and (5) a final
// Allreduce exchanges error codes. ROMIO precomputes the my_req/others_req
// maps once before the loop; this implementation derives the identical
// per-round sets from the file domains inside the loop, which produces the
// same message pattern.
//
// Every collective surfaces a timeout (armed by World.SetCollTimeout) as
// an error wrapping mpi.ErrCollTimeout; a missed shuffle message under the
// failover policy ends the epoch with one wrapping mpi.ErrRecvTimeout.
func (f *File) twoPhase(ep epoch, segs []extent.Extent, pre []int64, data []byte) error {
	r, c, log := f.rank, ep.comm, f.log
	failover := ep.acked != nil

	mt := f.metrics()
	mRoundNs := mt.Histogram("adio_round_ns", layerLabel)
	mRounds := mt.Counter("adio_coll_rounds_total", layerLabel)
	mExch := mt.Counter("adio_exchange_bytes_total", layerLabel)
	tr := r.World().Kernel().Tracer()
	ttk := r.TraceTrack(tr)

	// This rank's pending work. Under the failover policy that is the
	// unacked gaps of each segment, computed per segment so every pending
	// extent stays inside one segment and segPayload can locate its bytes.
	pending := segs
	if failover {
		pending = nil
		for _, s := range segs {
			pending = append(pending, ep.acked.Gaps(s)...)
		}
	}

	// Step 1: exchange access-pattern information (start and end offsets).
	span := mpe.StartSpan(r.Now())
	offs, err := c.Allgather(r, accessBounds(pending))
	if err != nil {
		return collFailed(err)
	}
	// Step 2: interleaving check over adjacent ranks, global range.
	minSt, maxEnd, interleaved := globalRange(offs)
	span.End(log, mpe.PhaseCalc, r.Now())
	if !failover && (f.hints.CBWrite == HintDisable || (f.hints.CBWrite == HintAutomatic && !interleaved)) {
		return f.WriteStrided(segs, data)
	}

	// Step 3: file domains, per the driver's partitioning strategy.
	fds, ntimes := f.fileDomains(minSt, maxEnd, len(ep.aggs))
	naggs := len(fds)
	cb := f.hints.CBBufferSize

	me := c.RankOf(r)
	myAgg := -1
	for a := 0; a < naggs; a++ {
		if ep.aggs[a] == me {
			myAgg = a
		}
	}
	var myFD extent.Extent
	if myAgg >= 0 {
		myFD = fds[myAgg]
		if buf := min64(cb, myFD.Len); buf > f.Stats.PeakBufBytes {
			f.Stats.PeakBufBytes = buf
		}
		tr.Instant(ttk, "adio", "file_domain", int64(r.Now()),
			trace.I("off", myFD.Off), trace.I("len", myFD.Len))
	}

	// The epoch's tag space: rounds live in the low 16 bits, the epoch
	// above them, so a straggler retransmit from a failed epoch can never
	// match a later epoch's receives.
	tagBase := tagDataBase + ((ep.n & 0x3ff) << 16)

	// Step 4: the extended two-phase loop.
	var firstErr error
	for m := 0; m < ntimes; m++ {
		tag := tagBase + (m & 0xffff)
		roundT0 := r.Now()
		rsp := tr.Begin(ttk, "adio", "round", int64(r.Now()))

		// What do I send to each aggregator this round?
		sendExts := make([][]extent.Extent, naggs)
		sendSizes := make([]int64, c.Size())
		for a := 0; a < naggs; a++ {
			win := roundWindow(fds[a], cb, m)
			if win.Empty() {
				continue
			}
			for _, s := range pending {
				if ov := s.Intersect(win); !ov.Empty() {
					sendExts[a] = append(sendExts[a], ov)
					sendSizes[ep.aggs[a]] += ov.Len
				}
			}
		}

		// Dissemination: every round starts with an MPI_Alltoall telling
		// each aggregator how much each process contributes.
		span = mpe.StartSpan(r.Now())
		recvSizes, err := c.Alltoall(r, sendSizes)
		if err != nil {
			return collFailed(err)
		}
		span.End(log, mpe.PhaseShuffleA2A, r.Now())

		// Data shuffle: post receives, start sends, wait for all.
		span = mpe.StartSpan(r.Now())
		var recvReqs []*mpi.Request
		if myAgg >= 0 {
			for src := 0; src < c.Size(); src++ {
				if src == me || recvSizes[src] == 0 {
					continue
				}
				recvReqs = append(recvReqs, r.Irecv(c.Member(src).ID(), tag))
			}
		}
		var sendReqs []*mpi.Request
		var selfExts []extent.Extent
		for a := 0; a < naggs; a++ {
			if len(sendExts[a]) == 0 {
				continue
			}
			if ep.aggs[a] == me {
				selfExts = sendExts[a]
				continue
			}
			msg := buildDataMsg(sendExts[a], segs, pre, data)
			f.Stats.BytesExchanged += msg.Size
			mExch.Add(msg.Size)
			sendReqs = append(sendReqs, r.Isend(c.Member(ep.aggs[a]).ID(), tag, msg))
		}
		r.Waitall(sendReqs)
		msgs, recvErr := f.awaitRecvs(recvReqs, ep.deadline)
		span.End(log, mpe.PhaseExchWaitall, r.Now())

		// Aggregator: pack the collective buffer and write the domain. A
		// missed message (a sender died mid-round) skips the write; the
		// round-ack then sends everyone to the next epoch.
		code := int64(ackOK)
		if recvErr != nil {
			code = ackTimeout
		} else if myAgg >= 0 {
			if win := roundWindow(myFD, cb, m); !win.Empty() {
				if err := f.packAndWrite(win, msgs, selfExts, segs, pre, data); err != nil {
					code = ackIOErr
					if firstErr == nil {
						firstErr = err
					}
				}
				f.Stats.CollRounds++
				mRounds.Inc()
			}
		}

		// Round-ack (failover policy): senders release this round's
		// extents only when every surviving aggregator confirms the round
		// landed, so anything a dead aggregator had in flight is replayed
		// from the sender's retained data in the next epoch.
		if failover {
			res, err := c.Allreduce(r, []int64{code}, mpi.MaxOp)
			if err != nil {
				return collFailed(err)
			}
			switch res[0] {
			case ackIOErr:
				if firstErr == nil {
					firstErr = errRemoteWrite
				}
				return firstErr
			case ackTimeout:
				return fmt.Errorf("adio: round %d: %w", m, mpi.ErrRecvTimeout)
			}
			for _, exts := range sendExts {
				for _, e := range exts {
					ep.acked.Add(e)
				}
			}
		}
		rsp.End(int64(r.Now()), trace.I("round", int64(m)), trace.I("ntimes", int64(ntimes)))
		mRoundNs.Observe(int64(r.Now() - roundT0))
	}

	// Step 5: synchronise and exchange error codes.
	span = mpe.StartSpan(r.Now())
	code := int64(ackOK)
	if firstErr != nil {
		code = ackIOErr
	}
	res, err := c.Allreduce(r, []int64{code}, mpi.MaxOp)
	if err != nil {
		return collFailed(err)
	}
	span.End(log, mpe.PhasePostWrite, r.Now())
	if res[0] != ackOK && firstErr == nil {
		firstErr = errRemoteWrite
	}
	return firstErr
}

// awaitRecvs collects the messages of reqs in order, bounding each wait by
// deadline when it is positive.
func (f *File) awaitRecvs(reqs []*mpi.Request, deadline sim.Time) ([]*mpi.Message, error) {
	msgs := make([]*mpi.Message, 0, len(reqs))
	for _, q := range reqs {
		if deadline <= 0 {
			msgs = append(msgs, f.rank.Wait(q))
			continue
		}
		msg, err := f.rank.WaitDeadline(q, deadline)
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, msg)
	}
	return msgs, nil
}

// collFailed wraps a collective's timeout error for the caller.
func collFailed(err error) error {
	return fmt.Errorf("adio: collective write: %w", err)
}

// noData marks a rank with nothing to access in the offset exchange.
const noData = int64(-1)

// accessBounds is this rank's entry in the offset exchange: the first and
// last byte segs cover, or noData for both when segs is empty.
func accessBounds(segs []extent.Extent) []int64 {
	if len(segs) == 0 {
		return []int64{noData, noData}
	}
	return []int64{segs[0].Off, segs[len(segs)-1].End() - 1}
}

// globalRange folds the gathered offset pairs into the global accessed
// range (both ends -1 when no rank has data) and reports whether adjacent
// ranks' accesses interleave.
func globalRange(offs [][]int64) (minSt, maxEnd int64, interleaved bool) {
	minSt, maxEnd = -1, -1
	prevEnd, hasPrev := int64(-1), false
	for _, o := range offs {
		if o[0] == noData {
			continue
		}
		if minSt == -1 || o[0] < minSt {
			minSt = o[0]
		}
		if o[1] > maxEnd {
			maxEnd = o[1]
		}
		if hasPrev && o[0] < prevEnd {
			interleaved = true
		}
		prevEnd, hasPrev = o[1], true
	}
	return minSt, maxEnd, interleaved
}

// fileDomains partitions [minSt, maxEnd] over naggs aggregators with the
// driver's strategy, and returns the number of collective-buffer rounds
// the largest domain needs.
func (f *File) fileDomains(minSt, maxEnd int64, naggs int) ([]extent.Extent, int) {
	fds := f.driver.FileDomains(minSt, maxEnd, naggs, f.hints)
	cb := f.hints.CBBufferSize
	ntimes := 0
	for _, fd := range fds {
		if nt := int((fd.Len + cb - 1) / cb); nt > ntimes {
			ntimes = nt
		}
	}
	return fds, ntimes
}

// payloadIndex returns the prefix sums that locate each segment's bytes in
// a rank's concatenated payload, or nil in metadata-only mode.
func payloadIndex(segs []extent.Extent, payload bool) []int64 {
	if !payload {
		return nil
	}
	pre := make([]int64, len(segs)+1)
	for i, s := range segs {
		pre[i+1] = pre[i] + s.Len
	}
	return pre
}

// roundWindow returns the sub-domain of fd written in round m with a
// collective buffer of cb bytes.
func roundWindow(fd extent.Extent, cb int64, m int) extent.Extent {
	off := fd.Off + int64(m)*cb
	if off >= fd.End() {
		return extent.Extent{}
	}
	return extent.Extent{Off: off, Len: min64(cb, fd.End()-off)}
}

// buildDataMsg encodes extents (and payload, when present) into a shuffle
// message. Vals carries (off, len) pairs; Size adds a 16-byte per-extent
// header to the payload bytes.
func buildDataMsg(exts []extent.Extent, segs []extent.Extent, pre []int64, data []byte) mpi.Message {
	vals := make([]int64, 0, 2*len(exts))
	var payload []byte
	var bytes int64
	for _, e := range exts {
		vals = append(vals, e.Off, e.Len)
		bytes += e.Len
		if data != nil {
			payload = append(payload, segPayload(e, segs, pre, data)...)
		}
	}
	return mpi.Message{Vals: vals, Data: payload, Size: bytes + 16*int64(len(exts))}
}

// segPayload extracts the bytes of e (which lies within one segment) from
// the rank's concatenated payload.
func segPayload(e extent.Extent, segs []extent.Extent, pre []int64, data []byte) []byte {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].End() > e.Off })
	if i == len(segs) || !segs[i].Covers(e) {
		panic(fmt.Sprintf("adio: extent %v not within any segment", e))
	}
	start := pre[i] + (e.Off - segs[i].Off)
	return data[start : start+e.Len]
}

// packAndWrite fills the collective buffer with the received and local
// contributions for win, charges the memory-copy cost, and writes every
// contiguous covered run via WriteContig (holes are skipped, as ROMIO does
// when hole detection shows no read-modify-write is needed).
func (f *File) packAndWrite(win extent.Extent, msgs []*mpi.Message, selfExts []extent.Extent,
	segs []extent.Extent, pre []int64, data []byte) error {
	r := f.rank
	var cover extent.Set
	var scratch store.Store
	var packed int64

	addPiece := func(e extent.Extent, b []byte) {
		cover.Add(e)
		packed += e.Len
		if b != nil {
			if scratch == nil {
				scratch = store.NewMem()
			}
			scratch.WriteAt(b, e.Off, e.Len)
		}
	}
	for _, m := range msgs {
		var cursor int64
		for i := 0; i+1 < len(m.Vals); i += 2 {
			e := extent.Extent{Off: m.Vals[i], Len: m.Vals[i+1]}
			var b []byte
			if m.Data != nil {
				b = m.Data[cursor : cursor+e.Len]
			}
			cursor += e.Len
			addPiece(e, b)
		}
	}
	for _, e := range selfExts {
		var b []byte
		if data != nil {
			b = segPayload(e, segs, pre, data)
		}
		addPiece(e, b)
	}

	// Packing cost: one memory copy of the collective buffer contents.
	span := mpe.StartSpan(r.Now())
	r.Node().LocalCopy(r.Proc(), packed)
	span.End(f.log, mpe.PhasePack, r.Now())

	span = mpe.StartSpan(r.Now())
	defer func() { span.End(f.log, mpe.PhaseWrite, r.Now()) }()

	runs := cover.Extents()
	// Hole handling, as in ADIOI_Exch_and_write: when the window is
	// fragmented but mostly covered, read-modify-write the whole window
	// once instead of issuing one write per fragment. Sparse coverage
	// writes the runs individually.
	if len(runs) > 1 && packed*2 >= win.Len {
		f.Stats.SievedWrites++
		var wd []byte
		if scratch != nil {
			wd = make([]byte, win.Len)
		}
		if err := f.ReadContig(wd, win.Off, win.Len); err != nil {
			return err
		}
		if scratch != nil {
			for _, run := range runs {
				run = run.Intersect(win)
				if run.Empty() {
					continue
				}
				scratch.ReadAt(wd[run.Off-win.Off:run.Off-win.Off+run.Len], run.Off)
			}
		}
		return f.WriteContig(wd, win.Off, win.Len)
	}
	var err error
	for _, run := range runs {
		run = run.Intersect(win)
		if run.Empty() {
			continue
		}
		var rd []byte
		if scratch != nil {
			rd = make([]byte, run.Len)
			scratch.ReadAt(rd, run.Off)
		}
		if werr := f.WriteContig(rd, run.Off, run.Len); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
