// Multi-tenant service-mode chaos: several independent jobs on one
// simulated cluster, each on its own contiguous rank block writing its own
// file under its own capacity contract, all contending for deliberately
// undersized per-node NVM. The tenant_isolation oracle re-runs every
// unfaulted tenant solo with the same seed and demands its file come out
// byte-identical — capacity pressure, noisy neighbors and other tenants'
// crashes must cost bandwidth, never bytes.
package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// tenantName returns tenant i's e10_tenant hint value.
func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

// tenantFile returns tenant i's private global file path.
func tenantFile(i int) string { return fmt.Sprintf("chaos.t%d.dat", i) }

// simulateTenants runs the multi-tenant workload: every tenant's rank
// block opens the tenant's file with its capacity-contract hints and
// writes its pattern, all inside one kernel run. Tenant crashes fire from
// kernel timers and kill only that tenant's open caches — the node, and
// every other tenant on it, keeps running.
func (r *run) simulateTenants() {
	sc := r.sc
	comm := r.cl.World.Comm()
	for i := range sc.Tenants {
		t := sc.Tenants[i]
		if t.CrashUS <= 0 {
			continue
		}
		i := i
		r.cl.Kernel.Spawn(fmt.Sprintf("chaos.tenant.%d.crash", i), func(p *sim.Proc) {
			p.Sleep(sim.Time(t.CrashUS) * sim.Microsecond)
			for _, c := range r.tenantCaches[i] {
				if r.liveCache(c) {
					c.Crash()
				}
			}
		})
	}
	r.runErr = r.cl.World.Run(func(mr *mpi.Rank) {
		me := mr.ID()
		ti := sc.tenantOf(me)
		color := ti
		if ti < 0 || (r.solo >= 0 && ti != r.solo) {
			color = -1 // idle rank, or muted tenant in a solo baseline run
		}
		jcomm, err := comm.Split(mr, color, me)
		if err != nil {
			r.fail(me, "split", err)
		}
		if jcomm == nil {
			return
		}
		t := sc.Tenants[ti]
		lrank := me - sc.tenantStart(ti)
		f, err := r.openTenant(mr, jcomm, ti)
		if err != nil {
			r.fail(me, "open", err)
			return
		}
		if me == 0 {
			applyInjection(r, phaseSession1, mr)
		}
		for b := 0; b < t.Blocks; b++ {
			off := t.offsetFor(sc.Shape, lrank, b)
			size := t.BlockKB << 10
			data := patternBuf(me, off, size)
			if werr := f.WriteContig(data, off, size); werr != nil {
				r.fail(me, "write", werr)
			} else {
				r.acked = append(r.acked, writeRec{
					rank: me, ext: extent.Extent{Off: off, Len: size}, file: tenantFile(ti)})
				r.refFor(tenantFile(ti)).WriteAt(data, off, size)
			}
		}
		if cerr := r.close(f, mr); cerr != nil {
			r.fail(me, "close", cerr)
		}
	})
}

// openTenant performs one collective open of tenant ti's file over the
// tenant's sub-communicator, carrying the scenario's cache hints plus the
// tenant's capacity contract.
func (r *run) openTenant(mr *mpi.Rank, comm *mpi.Comm, ti int) (*adio.File, error) {
	t := r.sc.Tenants[ti]
	info := mpi.Info{
		adio.HintCBWrite:   "enable",
		core.HintCache:     r.sc.Mode,
		core.HintFlushFlag: r.sc.FlushFlag,
		core.HintTenant:    tenantName(ti),
	}
	if !r.sc.Discard {
		info[core.HintDiscardFlag] = "disable"
	}
	if t.QuotaKB > 0 {
		info[core.HintTenantQuotaBytes] = fmt.Sprintf("%d", t.QuotaKB<<10)
	}
	if t.ReserveKB > 0 {
		info[core.HintTenantReserve] = fmt.Sprintf("%d", t.ReserveKB<<10)
	}
	if t.Admit != "" {
		info[core.HintTenantAdmit] = t.Admit
	}
	if t.Policy != "" {
		info[core.HintTenantPolicy] = t.Policy
	}
	f, err := adio.OpenColl(mr, adio.OpenArgs{
		Comm: comm, Registry: r.cl.Env.Registry,
		Path: tenantFile(ti), Create: true, Info: info,
		Hooks: r.cl.CoreEnv.HooksFactory(),
	})
	if err != nil {
		return nil, err
	}
	if f.Stats.CacheFallback {
		r.fallbacks++ // e.g. a rejected admission: the job runs uncached
	}
	if c, ok := f.InstalledHooks().(*core.Cache); ok && c != nil {
		node := mr.Node().ID()
		r.live[node][c] = true
		r.caches = append(r.caches, c)
		r.tenantCaches[ti] = append(r.tenantCaches[ti], c)
		r.cacheName[mr.ID()] = c.Name()
		r.cacheNode[mr.ID()] = node
		r.journalKey[mr.ID()] = c.JournalKey()
	}
	return f, nil
}

// liveCache reports whether a cache is still open on any node.
func (r *run) liveCache(c *core.Cache) bool {
	for _, m := range r.live {
		if m[c] {
			return true
		}
	}
	return false
}

// digestTenant hashes tenant i's global file: every written extent's
// bounds and payload, in file order. Two runs that durably wrote the same
// bytes — and nothing else — produce the same digest, so a foreign byte
// landing anywhere in the file changes it.
func (r *run) digestTenant(i int) string {
	h := sha256.New()
	if meta := r.cl.FS.Lookup(tenantFile(i)); meta != nil {
		st := meta.Store()
		for _, e := range st.Written().Extents() {
			var hdr [16]byte
			binary.LittleEndian.PutUint64(hdr[:8], uint64(e.Off))
			binary.LittleEndian.PutUint64(hdr[8:], uint64(e.Len))
			h.Write(hdr[:])
			buf := make([]byte, e.Len)
			st.ReadAt(buf, e.Off)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// soloTenantDigest re-executes the scenario with only tenant `only`
// active — same seed, same cluster and rank placement, same capacity
// contract, but no faults, no injection and no neighbors — and returns
// the digest of the tenant's file. This is the contention-free baseline
// the isolation oracle compares against.
func soloTenantDigest(sc Scenario, only int) (string, error) {
	s := sc
	s.Faults = nil
	s.Injection = ""
	tenants := append([]TenantSpec(nil), sc.Tenants...)
	for j := range tenants {
		tenants[j].CrashUS = 0
	}
	s.Tenants = tenants
	r := &run{sc: s, solo: only}
	if err := r.setup(); err != nil {
		return "", err
	}
	r.simulate()
	if r.runErr != nil {
		return "", fmt.Errorf("solo run did not terminate: %w", r.runErr)
	}
	lo := s.tenantStart(only)
	for lr := 0; lr < s.Tenants[only].Ranks; lr++ {
		if e := r.rankErr[lo+lr]; e != "" {
			return "", fmt.Errorf("solo run rank %d failed: %s", lo+lr, e)
		}
	}
	return r.digestTenant(only), nil
}

// checkTenantIsolation enforces the multi-tenant contract for every tenant
// that is not a deliberate fault victim:
//
//   - capacity pressure alone never fails the job — no rank of an
//     unfaulted tenant may end with a surfaced error;
//   - the tenant's file is byte-identical to a solo same-seed run, so
//     neighbors' load, crashes and evictions cost bandwidth, never bytes,
//     and no foreign byte leaks into the tenant's namespace.
func (r *run) checkTenantIsolation(add func(inv, format string, args ...interface{})) {
	if len(r.sc.Tenants) == 0 {
		return
	}
	for i := range r.sc.Tenants {
		if r.sc.tenantFaulted(i) {
			continue // durability of faulted tenants is the conservation oracle's job
		}
		clean := true
		lo := r.sc.tenantStart(i)
		for lr := 0; lr < r.sc.Tenants[i].Ranks; lr++ {
			if e := r.rankErr[lo+lr]; e != "" {
				add(InvTenantIsolation,
					"tenant %s rank %d failed under capacity pressure alone: %s",
					tenantName(i), lo+lr, e)
				clean = false
			}
		}
		if !clean {
			continue // the digest of a failed job would only repeat the news
		}
		want, err := soloTenantDigest(r.sc, i)
		if err != nil {
			add(InvTenantIsolation, "tenant %s baseline: %v", tenantName(i), err)
			continue
		}
		if got := r.digestTenant(i); got != want {
			add(InvTenantIsolation,
				"tenant %s file %s diverged from its solo same-seed run (digest %.12s != %.12s)",
				tenantName(i), tenantFile(i), got, want)
		}
	}
}
