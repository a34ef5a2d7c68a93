package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"odbscale/internal/buffercache"
	"odbscale/internal/cache"
	"odbscale/internal/cpu"
	"odbscale/internal/engine"
	"odbscale/internal/odb"
	"odbscale/internal/sim"
	"odbscale/internal/storage"
	"odbscale/internal/system"
	"odbscale/internal/trace"
	synth "odbscale/internal/workload"
	"odbscale/internal/xrand"
)

// Each layer probe times calls into one package's public functions on
// inputs the workload generates, from outside the simulator. Sizes are
// fixed so a probe's work does not depend on host speed.
const (
	maxReplayRefs = 1 << 21 // references replayed through the cache domain
	probeTxns     = 20_000  // generator transactions behind the odb, engine and buffer-cache probes
	probeDraws    = 4_000_000
	probeBranches = 4_000_000
	probeEvents   = 1_000_000
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// setter records one metric with its unit.
type setter func(name string, v float64, unit string)

// nsPer returns nanoseconds per operation.
func nsPer(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(ops)
}

// captureRefs runs cfg once with system.WithTrace and decodes up to
// maxReplayRefs of the measurement period's references. It returns the
// run's Metrics too: capture is observation-only, so they must match an
// uncaptured run's.
func captureRefs(ctx context.Context, cfg system.Config) ([]trace.Record, system.Metrics, error) {
	var buf bytes.Buffer
	m, err := system.Run(ctx, cfg, system.WithTrace(&buf, nil))
	if err != nil {
		return nil, m, fmt.Errorf("capturing references: %w", err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		return nil, m, err
	}
	var refs []trace.Record
	for len(refs) < maxReplayRefs {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, m, err
		}
		refs = append(refs, rec)
	}
	return refs, m, nil
}

// cacheProbe replays refs through a fresh coherent domain of the
// simulator's scaled geometry.
func cacheProbe(cfg system.Config, refs []trace.Record, set setter) {
	geo := synth.ScaledGeometry(cfg.Machine.Geometry, cfg.Tuning.Scale)
	d := cache.NewDomain(geo, cfg.Processors, true)
	defer d.Close()
	var l3, coher int
	t0 := time.Now()
	for _, r := range refs {
		res := d.Access(int(r.CPU), cache.Addr(r.Addr), r.Kind)
		if res.L3Miss {
			l3++
		}
		if res.Coherence {
			coher++
		}
	}
	set("cache.ns_per_access", nsPer(time.Since(t0), len(refs)), "ns")
	missRatio := 0.0
	if len(refs) > 0 {
		missRatio = float64(l3) / float64(len(refs))
	}
	set("cache.l3_miss_ratio", missRatio, "fraction")
	set("cache.coherence_invalidations", float64(coher), "count")
}

// cpuProbe times the TLB over the captured data addresses and the
// branch predictor over Zipf-distributed branch sites.
func cpuProbe(seed int64, refs []trace.Record, set setter) {
	tlb := cpu.NewTLB(64, 4, 64)
	var hits uint64
	n := 0
	t0 := time.Now()
	for _, r := range refs {
		if r.Kind == cache.Fetch {
			continue
		}
		if tlb.Access(r.Addr) {
			hits++
		}
		n++
	}
	set("cpu.ns_per_tlb_access", nsPer(time.Since(t0), n), "ns")

	rng := xrand.New(seed)
	z := xrand.NewZipf(rng.Split(1), 1.05, 512)
	sites := make([]uint64, probeBranches)
	taken := make([]bool, probeBranches)
	for i := range sites {
		sites[i] = z.Next()
		// Most sites lean one way; one outcome in eight goes against it.
		taken[i] = (sites[i]%4 != 0) != (rng.Uint64()%8 == 0)
	}
	bp := cpu.NewBranchPredictor(13, 2)
	t0 = time.Now()
	for i, s := range sites {
		if bp.Record(s, taken[i]) {
			hits++
		}
	}
	set("cpu.ns_per_branch", nsPer(time.Since(t0), len(sites)), "ns")
	sink += hits
}

// xrandProbe times the RNG primitives reference synthesis draws from.
func xrandProbe(seed int64, set setter) {
	rng := xrand.New(seed)
	z := xrand.NewZipf(rng.Split(1), 1.45, odb.Items)
	var acc uint64
	t0 := time.Now()
	for i := 0; i < probeDraws; i++ {
		acc += z.Next()
	}
	set("xrand.ns_per_zipf", nsPer(time.Since(t0), probeDraws), "ns")
	t0 = time.Now()
	for i := 0; i < probeDraws; i++ {
		acc += rng.Uint64()
	}
	set("xrand.ns_per_uint64", nsPer(time.Since(t0), probeDraws), "ns")
	sink += acc
}

// newEngine builds the named engine over a fresh machine substrate
// shaped like cfg's, as the system layer wires it.
func newEngine(cfg system.Config, layout *odb.Layout, bc *buffercache.Cache) engine.Instance {
	fac, _ := engine.Lookup(cfg.Engine)
	eng := sim.New()
	rng := xrand.New(cfg.Seed)
	disks := cfg.Machine.Disks
	disks.CyclesPerMS = cfg.Machine.FreqHz / 1e3
	t := cfg.Tuning
	return fac.New(engine.Env{
		Layout:      layout,
		Cache:       bc,
		Disks:       storage.New(disks, eng, rng.Split(2)),
		Sim:         eng,
		Rand:        rng.Split(5),
		CyclesPerMS: disks.CyclesPerMS,
		Tuning: engine.Tuning{
			DBWriterBatch:   t.DBWriterBatch,
			DirtyHighWater:  t.DirtyHighWater,
			DBWriterAgeGets: t.DBWriterAgeGets,
			DBWriterInstr:   t.DBWriterInstr,
			LSM:             t.LSM,
		},
	})
}

// odbProbe times transaction generation, the lock manager, the named
// engine's planner and the buffer cache, all on the op streams of
// odb.Generator transactions at cfg's warehouse count.
func odbProbe(cfg system.Config, set setter) {
	layout := odb.NewLayout(cfg.Warehouses)
	capBlocks := cfg.Machine.BufferCacheMB * (1 << 20) / odb.BlockSize
	inst := newEngine(cfg, layout, buffercache.New(buffercache.Config{Blocks: capBlocks}))

	// Generation through the engine's planner, as the machine runs it.
	gen := odb.NewGenerator(layout, xrand.New(cfg.Seed).Split(1))
	gen.StockLevelScan = cfg.Tuning.StockLevelScan
	gen.SetPlanner(inst.Planner(xrand.New(cfg.Seed).Split(6)))
	var ops int
	t0 := time.Now()
	for i := 0; i < probeTxns; i++ {
		txn := gen.Next(i % cfg.Clients)
		ops += len(txn.Ops)
		gen.Recycle(txn)
	}
	set("odb.ns_per_txn", nsPer(time.Since(t0), probeTxns), "ns")
	sink += uint64(ops)

	// Record a B-tree-planned op stream: row accesses for the planner,
	// block IDs for the buffer cache, lock IDs for the lock manager.
	type rowAccess struct {
		t     odb.TableID
		ord   uint64
		write bool
	}
	var (
		rows   []rowAccess
		blocks []odb.BlockID
		locks  []odb.Op
	)
	ref := odb.NewGenerator(layout, xrand.New(cfg.Seed).Split(1))
	ref.StockLevelScan = cfg.Tuning.StockLevelScan
	for i := 0; i < probeTxns; i++ {
		txn := ref.Next(i % cfg.Clients)
		for _, op := range txn.Ops {
			switch op.Kind {
			case odb.OpRead, odb.OpWrite:
				blocks = append(blocks, op.Block)
				if op.Phase == odb.PhaseBuffer {
					rows = append(rows, rowAccess{op.Table, op.Ord, op.Kind == odb.OpWrite})
				}
			case odb.OpLock, odb.OpUnlock:
				locks = append(locks, op)
			}
		}
		ref.Recycle(txn)
	}

	planner := inst.Planner(xrand.New(cfg.Seed).Split(6))
	var planned []odb.Op
	t0 = time.Now()
	for _, r := range rows {
		if r.write {
			planned = planner.WriteRow(planned[:0], r.t, r.ord, 1)
		} else {
			planned = planner.ReadRow(planned[:0], r.t, r.ord)
		}
		sink += uint64(len(planned))
	}
	set("engine.ns_per_plan", nsPer(time.Since(t0), len(rows)), "ns")

	lm := odb.NewLockManager()
	grant := func() {}
	t0 = time.Now()
	for _, op := range locks {
		if op.Kind == odb.OpLock {
			lm.Acquire(op.Res, 0, grant)
		} else {
			lm.Release(op.Res, 0)
		}
	}
	set("odb.ns_per_lock", nsPer(time.Since(t0), len(locks)), "ns")

	// The buffer cache warms on one pass over the block stream and is
	// timed on a second.
	bc := buffercache.New(buffercache.Config{Blocks: capBlocks})
	get := func(id odb.BlockID) {
		e := bc.Lookup(id)
		if e == nil {
			e, _ = bc.Install(id)
		}
		bc.Release(e)
	}
	for _, id := range blocks {
		get(id)
	}
	bc.ResetStats()
	t0 = time.Now()
	for _, id := range blocks {
		get(id)
	}
	set("buffercache.ns_per_get", nsPer(time.Since(t0), len(blocks)), "ns")
	set("buffercache.hit_ratio", bc.Stats().HitRatio(), "fraction")
}

// simProbe times the discrete-event core on a self-rescheduling chain
// with interleaved cancels, the pattern the machine model produces.
func simProbe(set setter) {
	eng := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < probeEvents {
			eng.After(3, tick)
			if n%4 == 0 {
				eng.After(10, func() {}).Cancel()
			}
		}
	}
	eng.After(1, tick)
	t0 := time.Now()
	for eng.Step() {
	}
	set("sim.ns_per_event", nsPer(time.Since(t0), n), "ns")
}
