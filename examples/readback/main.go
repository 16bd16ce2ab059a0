// Readback: write-then-read analysis workflow, MPI-IO consistency, and
// the cache-read extension.
//
// A producer phase writes a block-cyclic shared dataset collectively with
// the SSD cache. Per §III-B of the paper, that data only becomes globally
// visible after MPI_File_sync (or close) — so the consumer phase first
// syncs, then reads every rank's own slice back independently and
// collectively. Because the cache files are still warm (they are only
// discarded at close), ranks that acted as aggregators serve reads of
// their file domains straight from the local SSD when the (future-work,
// §VI) e10_cache_read hint is on.
//
//	go run ./examples/readback
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
)

func main() {
	cfg := repro.Scaled(99, 4, 2)
	cfg.Payload = true
	cluster := repro.NewCluster(cfg)
	world := cluster.World
	comm := world.Comm()

	info := repro.Info{
		repro.HintCBWrite:           "enable",
		repro.HintCBRead:            "enable",
		repro.HintCBNodes:           "4",
		repro.HintE10Cache:          repro.CacheValueEnable,
		repro.HintE10CacheFlushFlag: repro.FlushImmediate,
		"e10_cache_read":            "enable",
	}
	const blockLen = 8192
	nranks := world.Size()
	var cacheReads int64
	err := world.Run(func(r *repro.Rank) {
		f, err := cluster.Env.Open(r, comm, "dataset.h5",
			repro.ModeCreate|repro.ModeRdWr, info)
		if err != nil {
			log.Fatal(err)
		}
		me := comm.RankOf(r)
		ft := repro.Vector(8, blockLen, int64(nranks)*blockLen)
		if err := f.SetView(int64(me)*blockLen, ft); err != nil {
			log.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(me + 1)}, 8*blockLen)
		if err := f.WriteAtAll(0, data, int64(len(data))); err != nil {
			log.Fatal(err)
		}

		// §III-B: the data written by other ranks (via their aggregators)
		// is only guaranteed visible after MPI_File_sync returns.
		if err := f.Sync(); err != nil {
			log.Fatal(err)
		}
		if err := comm.Barrier(r); err != nil {
			log.Fatal(err)
		}

		// Independent read of my own slice. For aggregator ranks, the
		// extents inside their file domain come from the warm SSD cache.
		got := make([]byte, len(data))
		if err := f.ReadAt(0, got, 0); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			log.Fatalf("rank %d: own-slice read mismatch", me)
		}

		// Collective two-phase read of the same slice.
		if err := f.ReadAtAll(0, got, 0); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			log.Fatalf("rank %d: collective read mismatch", me)
		}

		if c, ok := f.Handle().InstalledHooks().(*core.Cache); ok {
			cacheReads += c.Stats.CacheReads
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset written, synced, read back twice; %d bytes verified per rank\n", 8*blockLen)
	fmt.Printf("reads served from warm SSD caches: %d\n", cacheReads)
	var ssdReads int64
	for _, fs := range cluster.NVMs {
		ssdReads += fs.Device().BytesRead
	}
	fmt.Printf("total bytes read from local SSDs (cache reads + sync): %d\n", ssdReads)
	fmt.Printf("simulated time: %v\n", cluster.Kernel.Now())
}
