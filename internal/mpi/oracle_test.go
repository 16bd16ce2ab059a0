package mpi

// The message-passing collectives below are the differential oracle for
// the analytic rendezvous production runs on: real message-based
// algorithms (dissemination barrier, binomial reduce and broadcast, ring
// allgather, pairwise alltoall) over the simulated network. Timings
// differ between the two; the data every rank gets back must not.

// collModel selects which implementation a test drives.
type collModel int

const (
	analytic collModel = iota
	messagePassing
)

var bothModels = []collModel{analytic, messagePassing}

func (m collModel) String() string {
	if m == messagePassing {
		return "message-passing"
	}
	return "analytic"
}

func (m collModel) barrier(c *Comm, r *Rank) {
	if m == messagePassing {
		c.msgBarrier(r)
		return
	}
	c.Barrier(r)
}

func (m collModel) allreduce(c *Comm, r *Rank, vals []int64, op Op) []int64 {
	if m == messagePassing {
		return c.msgAllreduce(r, vals, op)
	}
	return must(c.Allreduce(r, vals, op))
}

func (m collModel) allgather(c *Comm, r *Rank, vals []int64) [][]int64 {
	if m == messagePassing {
		return c.msgAllgather(r, vals)
	}
	return must(c.Allgather(r, vals))
}

func (m collModel) alltoall(c *Comm, r *Rank, send []int64) []int64 {
	if m == messagePassing {
		return c.msgAlltoall(r, send)
	}
	return must(c.Alltoall(r, send))
}

// advanceTagFor reserves a tag block for one collective call. All ranks
// allocate collective call indices in the same order (SPMD), so the tag is
// consistent across the communicator; the stride of 4 leaves room for
// multi-stage algorithms (reduce+bcast) to use distinct sub-tags.
func (c *Comm) advanceTagFor(me int) int {
	tag := 1<<30 + c.callIdx[me]*4
	c.callIdx[me]++
	return tag
}

func (c *Comm) msgBarrier(r *Rank) {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	for dist := 1; dist < p; dist *= 2 {
		dst := c.ranks[(me+dist)%p].id
		src := c.ranks[(me-dist+p)%p].id
		req := r.Irecv(src, tag)
		r.Send(dst, tag, Message{Size: 1})
		r.Wait(req)
	}
}

func (c *Comm) msgAllreduce(r *Rank, vals []int64, op Op) []int64 {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	acc := make([]int64, len(vals))
	copy(acc, vals)
	// Binomial reduce to comm rank 0.
	for dist := 1; dist < p; dist *= 2 {
		if me%(2*dist) == 0 {
			if me+dist < p {
				m := r.Recv(c.ranks[me+dist].id, tag)
				for j := range acc {
					acc[j] = op(acc[j], m.Vals[j])
				}
			}
		} else {
			r.Send(c.ranks[me-dist].id, tag, Message{Vals: acc})
			break
		}
	}
	// Binomial broadcast of the result on a distinct sub-tag.
	return c.bcastWithTag(r, 0, acc, tag+1)
}

func (c *Comm) bcastWithTag(r *Rank, root int, vals []int64, tag int) []int64 {
	me := c.RankOf(r)
	p := len(c.ranks)
	rel := (me - root + p) % p
	if rel != 0 {
		src := ((rel - lowestSetBit(rel)) + root) % p
		m := r.Recv(c.ranks[src].id, tag)
		vals = m.Vals
	}
	for dist := topMask(p); dist >= 1; dist /= 2 {
		if rel%(2*dist) == 0 && rel+dist < p {
			dst := (rel + dist + root) % p
			r.Send(c.ranks[dst].id, tag, Message{Vals: vals})
		}
	}
	return vals
}

func (c *Comm) msgAllgather(r *Rank, vals []int64) [][]int64 {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	out := make([][]int64, p)
	out[me] = vals
	// Ring: forward the (p-1) most recently received contributions.
	right := c.ranks[(me+1)%p].id
	left := c.ranks[(me-1+p)%p].id
	cur := me
	curVals := vals
	for step := 0; step < p-1; step++ {
		req := r.Irecv(left, tag)
		r.Send(right, tag, Message{Vals: append([]int64{int64(cur)}, curVals...)})
		m := r.Wait(req)
		cur = int(m.Vals[0])
		curVals = m.Vals[1:]
		out[cur] = curVals
	}
	return out
}

func (c *Comm) msgAlltoall(r *Rank, send []int64) []int64 {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	out := make([]int64, p)
	out[me] = send[me]
	for round := 1; round < p; round++ {
		dst := (me + round) % p
		src := (me - round + p) % p
		req := r.Irecv(c.ranks[src].id, tag)
		r.Send(c.ranks[dst].id, tag, Message{Vals: []int64{send[dst]}})
		m := r.Wait(req)
		out[src] = m.Vals[0]
	}
	return out
}

func lowestSetBit(x int) int { return x & (-x) }

// topMask returns the largest power of two strictly below the smallest
// power of two >= p (i.e. the first sender stride of a binomial tree).
func topMask(p int) int {
	m := 1
	for m < p {
		m *= 2
	}
	return m / 2
}
