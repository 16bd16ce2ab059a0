package mpi

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// runCollective executes body on a fresh world and returns per-rank
// outputs.
func runCollective(t *testing.T, nodes, perNode int, body func(c *Comm, r *Rank) []int64) [][]int64 {
	t.Helper()
	w := testWorld(t, nodes, perNode)
	c := w.Comm()
	out := make([][]int64, w.Size())
	if err := w.Run(func(r *Rank) {
		out[r.ID()] = body(c, r)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBarrierSynchronisesBothModels(t *testing.T) {
	for _, model := range bothModels {
		w := testWorld(t, 4, 2)
		c := w.Comm()
		var after []sim.Time
		err := w.Run(func(r *Rank) {
			r.Compute(sim.Time(r.ID()) * sim.Millisecond) // skewed arrivals
			model.barrier(c, r)
			after = append(after, r.Now())
		})
		if err != nil {
			t.Fatal(err)
		}
		maxArrival := sim.Time(7) * sim.Millisecond
		for _, a := range after {
			if a < maxArrival {
				t.Fatalf("model %v: rank left barrier at %v before slowest arrival %v", model, a, maxArrival)
			}
		}
	}
}

func TestAllreduceValues(t *testing.T) {
	for _, model := range bothModels {
		out := runCollective(t, 3, 2, func(c *Comm, r *Rank) []int64 {
			return model.allreduce(c, r, []int64{int64(r.ID()), int64(-r.ID()), 1}, MaxOp)
		})
		for rank, v := range out {
			if v[0] != 5 || v[1] != 0 || v[2] != 1 {
				t.Fatalf("model %v rank %d: allreduce = %v", model, rank, v)
			}
		}
	}
}

func TestAllreduceSumAndMin(t *testing.T) {
	out := runCollective(t, 2, 2, func(c *Comm, r *Rank) []int64 {
		s := c.msgAllreduce(r, []int64{int64(r.ID() + 1)}, SumOp)
		m := c.msgAllreduce(r, []int64{int64(r.ID() + 1)}, MinOp)
		return []int64{s[0], m[0]}
	})
	for rank, v := range out {
		if v[0] != 10 || v[1] != 1 {
			t.Fatalf("rank %d: sum=%d min=%d", rank, v[0], v[1])
		}
	}
}

func TestAllgatherValues(t *testing.T) {
	for _, model := range bothModels {
		w := testWorld(t, 2, 2)
		c := w.Comm()
		results := make([][][]int64, w.Size())
		err := w.Run(func(r *Rank) {
			results[r.ID()] = model.allgather(c, r, []int64{int64(r.ID() * 10), int64(r.ID())})
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank, res := range results {
			for i, v := range res {
				if v[0] != int64(i*10) || v[1] != int64(i) {
					t.Fatalf("model %v rank %d: allgather[%d] = %v", model, rank, i, v)
				}
			}
		}
	}
}

func TestAlltoallValues(t *testing.T) {
	for _, model := range bothModels {
		w := testWorld(t, 5, 1)
		c := w.Comm()
		results := make([][]int64, w.Size())
		err := w.Run(func(r *Rank) {
			send := make([]int64, c.Size())
			for i := range send {
				send[i] = int64(r.ID()*100 + i)
			}
			results[r.ID()] = model.alltoall(c, r, send)
		})
		if err != nil {
			t.Fatal(err)
		}
		for me, recv := range results {
			for src, v := range recv {
				if want := int64(src*100 + me); v != want {
					t.Fatalf("model %v: recv[%d][%d] = %d, want %d", model, me, src, v, want)
				}
			}
		}
	}
}

func TestSubCommunicator(t *testing.T) {
	w := testWorld(t, 4, 1)
	sub := w.NewComm([]int{1, 3}) // aggregator-style subset
	results := make(map[int]int64)
	err := w.Run(func(r *Rank) {
		if sub.RankOf(r) < 0 {
			return
		}
		v := must(sub.Allreduce(r, []int64{int64(r.ID())}, SumOp))
		results[r.ID()] = v[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[1] != 4 || results[3] != 4 {
		t.Fatalf("sub-comm allreduce = %v", results)
	}
}

func TestSingleRankCollectivesAreFree(t *testing.T) {
	w := testWorld(t, 1, 1)
	err := w.Run(func(r *Rank) {
		c := w.Comm()
		c.Barrier(r)
		v := must(c.Allreduce(r, []int64{9}, MaxOp))
		g := must(c.Allgather(r, []int64{7}))
		a := must(c.Alltoall(r, []int64{5}))
		if v[0] != 9 || g[0][0] != 7 || a[0] != 5 {
			t.Error("single-rank collectives wrong")
		}
		if r.Now() != 0 {
			t.Errorf("single-rank collectives must cost nothing, took %v", r.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedCollectivesPanic(t *testing.T) {
	w := testWorld(t, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched collectives")
		}
	}()
	_ = w.Run(func(r *Rank) {
		c := w.Comm()
		if r.ID() == 0 {
			c.Barrier(r)
		} else {
			_, _ = c.Allreduce(r, []int64{1}, MaxOp)
		}
	})
}

// Property: the analytic collectives and the message-passing oracle produce identical data
// results for random inputs (timings differ, semantics must not).
func TestCollectiveModelsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6) + 2 // 2..7 ranks
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = r.Int63n(1000) - 500
		}
		run := func(model collModel) ([][]int64, [][]int64) {
			k := sim.NewKernel(seed)
			f := netsim.New(k, netsim.Config{Nodes: n, InjRate: sim.GBps, EjeRate: sim.GBps, Latency: sim.Microsecond, MemRate: 10 * sim.GBps})
			w := NewWorld(k, f, 1)
			c := w.Comm()
			red := make([][]int64, n)
			a2a := make([][]int64, n)
			if err := w.Run(func(rk *Rank) {
				red[rk.ID()] = model.allreduce(c, rk, []int64{vals[rk.ID()]}, MaxOp)
				send := make([]int64, n)
				for i := range send {
					send[i] = vals[rk.ID()] * int64(i+1)
				}
				a2a[rk.ID()] = model.alltoall(c, rk, send)
			}); err != nil {
				t.Fatal(err)
			}
			return red, a2a
		}
		ra, aa := run(analytic)
		rm, am := run(messagePassing)
		for i := range ra {
			if ra[i][0] != rm[i][0] {
				return false
			}
			for j := range aa[i] {
				if aa[i][j] != am[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticAlltoallScalesWithCommSize(t *testing.T) {
	cost := func(n int) sim.Time {
		w := testWorld(t, n, 1)
		c := w.Comm()
		var end sim.Time
		if err := w.Run(func(r *Rank) {
			send := make([]int64, n)
			must(c.Alltoall(r, send))
			end = r.Now()
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if c4, c16 := cost(4), cost(16); c16 <= c4 {
		t.Fatalf("alltoall cost must grow with comm size: %v vs %v", c4, c16)
	}
}

func TestSplitByColor(t *testing.T) {
	w := testWorld(t, 4, 2) // 8 ranks
	sums := make([]int64, w.Size())
	err := w.Run(func(r *Rank) {
		c := w.Comm()
		sub := must(c.Split(r, r.ID()%2, r.ID()))
		if sub == nil {
			t.Errorf("rank %d got nil comm", r.ID())
			return
		}
		if sub.Size() != 4 {
			t.Errorf("sub size = %d", sub.Size())
		}
		res := must(sub.Allreduce(r, []int64{int64(r.ID())}, SumOp))
		sums[r.ID()] = res[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		want := int64(0 + 2 + 4 + 6)
		if i%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if s != want {
			t.Fatalf("sum[%d] = %d, want %d", i, s, want)
		}
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	w := testWorld(t, 2, 1)
	err := w.Run(func(r *Rank) {
		c := w.Comm()
		color := 0
		if r.ID() == 1 {
			color = -1 // MPI_UNDEFINED
		}
		sub := must(c.Split(r, color, 0))
		if r.ID() == 1 && sub != nil {
			t.Error("undefined color must yield nil")
		}
		if r.ID() == 0 && (sub == nil || sub.Size() != 1) {
			t.Errorf("rank 0 comm wrong: %v", sub)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOrdersByKey(t *testing.T) {
	w := testWorld(t, 3, 1)
	err := w.Run(func(r *Rank) {
		c := w.Comm()
		// Reverse key order: rank 2 gets key 0, rank 0 key 2.
		sub := must(c.Split(r, 0, 2-r.ID()))
		if got := sub.RankOf(r); got != 2-r.ID() {
			t.Errorf("rank %d: sub rank = %d, want %d", r.ID(), got, 2-r.ID())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitSurfacesCollTimeout(t *testing.T) {
	// Rank 1 dies before the Split; its Allgather slot stays empty. With a
	// timeout armed the survivors must get the timeout error and no
	// communicator, not a grouping built from the missing rank's nil slot.
	w := testWorld(t, 2, 2)
	w.SetCollTimeout(10 * sim.Millisecond)
	errs := make([]error, w.Size())
	subs := make([]*Comm, w.Size())
	err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			w.Kill(1)
		}
		subs[r.ID()], errs[r.ID()] = w.Comm().Split(r, 0, r.ID())
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 2, 3} {
		if !errors.Is(errs[id], ErrCollTimeout) || subs[id] != nil {
			t.Fatalf("rank %d: Split = (%v, %v), want (nil, ErrCollTimeout)", id, subs[id], errs[id])
		}
	}
}
