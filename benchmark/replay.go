package main

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	// The cluster's defaults for a rank's trace depth and heat decay.
	historyWindows = 6
	heatDecay      = 0.97

	replayOps     = 1 << 20 // ops drawn and pushed through each per-op layer
	replayCreates = 1 << 18 // files created (they stay in the tree)
	replayTicks   = 1 << 10 // calls of per-tick entry points
	replayBlock   = 1024    // per-op calls per span
)

// replaySink keeps the compiler from discarding replayed calls whose results
// are otherwise unused.
var replaySink uint64

// replay pushes the same op stream through one layer's exported entry
// points at a time and returns nanoseconds per call for each. It runs
// after the traced run, on that run's final tree and partition, so the
// resolver, heat tables and caches see the subtree layout the run
// ended with. Per-op calls are never clocked inside a run (two
// time.Now() cost more than Stream.Next); this is where they are timed.
//
// The ops come from a fresh generator with the run's seed, set up on a
// scratch tree exactly as cluster.New does, and are mapped onto the
// run's tree by inode number: set-up is deterministic, so the scratch
// inodes are the run's initial inodes.
func replay(tr *tracer, w workloadDef, seed uint64, c *cluster.Cluster) (values, error) {
	root := tr.begin("replay")
	defer tr.end(root)
	// One goroutine, so one core, the collector included: see runOnce.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tree, part := c.Tree(), c.Partition()

	ops, err := drawOps(tr, w, seed, tree)
	if err != nil {
		return nil, err
	}
	n := len(ops)
	v := values{
		"workload.next_ns_per_op": ratio(float64(totalDur(tr.within(root, "workload.Stream.Next"))), float64(n)),
	}

	// targets[i] is what the engine would resolve for op i: the target,
	// the already-created file of a create, or the parent directory of a
	// create that is still new.
	targets := make([]*namespace.Inode, n)
	seen := make([]bool, tree.MaxIno()+1)
	var distinct []*namespace.Inode
	for i, op := range ops {
		in := op.Target
		if op.Kind == workload.OpCreate {
			if in = op.Parent.Child(op.Name); in == nil {
				in = op.Parent
			}
		}
		targets[i] = in
		if !seen[in.Ino] {
			seen[in.Ino] = true
			distinct = append(distinct, in)
		}
	}

	// namespace: resolver memo cold (every call the first after a
	// partition version bump), warm, and the forwarding-chain walk.
	res := namespace.NewResolver(part)
	entries := make([]namespace.Entry, n)
	for i, in := range targets {
		entries[i] = res.Entry(in)
	}
	rootEntry := part.RootEntry()
	var coldNs, coldCalls float64
	for coldCalls < replayOps {
		// Two bumps that leave the partition as it was.
		part.SetAuth(rootEntry.Key, rootEntry.Auth+1)
		part.SetAuth(rootEntry.Key, rootEntry.Auth)
		coldNs += float64(len(distinct)) * tr.blocks("namespace.Resolver.Entry/cold", len(distinct), replayBlock, func(lo, hi int) {
			for _, in := range distinct[lo:hi] {
				replaySink += uint64(res.Entry(in).Auth)
			}
		})
		coldCalls += float64(len(distinct))
	}
	v["namespace.resolve_cold_ns_per_op"] = coldNs / coldCalls
	for _, in := range targets {
		res.Entry(in)
	}
	v["namespace.resolve_warm_ns_per_op"] = tr.blocks("namespace.Resolver.Entry/warm", n, replayBlock, func(lo, hi int) {
		for _, in := range targets[lo:hi] {
			replaySink += uint64(res.Entry(in).Auth)
		}
	})
	var chain []namespace.MDSID
	v["namespace.chain_ns_per_op"] = tr.blocks("namespace.Partition.ResolveChainInto", n, replayBlock, func(lo, hi int) {
		for _, in := range targets[lo:hi] {
			chain, _ = part.ResolveChainInto(chain[:0], in)
			replaySink += uint64(len(chain))
		}
	})

	// client: the authority-cache probe and the closed-loop issue path.
	cl := client.New(0, workload.ClientSpec{Stream: workload.NewOpList(ops)}, float64(replayBlock))
	for _, e := range entries {
		if _, ok := cl.CacheLookup(e.Key); !ok {
			cl.CacheStore(e.Key, e.Auth)
		}
	}
	v["client.cache_lookup_ns_per_op"] = tr.blocks("client.Client.CacheLookup", n, replayBlock, func(lo, hi int) {
		for _, e := range entries[lo:hi] {
			a, _ := cl.CacheLookup(e.Key)
			replaySink += uint64(a)
		}
	})
	v["client.issue_ns_per_op"] = tr.blocks("client.Client.issue", n, replayBlock, func(lo, hi int) {
		credit := cl.AccrueCredit()
		for i := 0; i < credit && lo+i < hi; i++ {
			if _, ok := cl.NextOp(int64(lo)); ok {
				replaySink += uint64(cl.CompleteOp(int64(lo)))
			}
		}
	})

	// trace and mds: the per-op serve path on a standalone rank, and the
	// collector underneath it alone. The two take turns block by block,
	// so that the subtraction below compares like with like on a host
	// whose speed drifts. An epoch closes every epochTicks blocks.
	col := trace.NewCollector(historyWindows)
	srv := mds.NewServer(0, replayBlock, historyWindows, heatDecay)
	var recordNs, serveNs, endEpochNs, endEpochs int64
	for lo := 0; lo < n; lo += replayBlock {
		hi := min(lo+replayBlock, n)
		block := lo / replayBlock
		epoch := int64(block / epochTicks)
		recordNs += tr.timed("trace.Collector.RecordNoVisit", hi-lo, func() {
			for i := lo; i < hi; i++ {
				if col.RecordNoVisit(entries[i].Key, targets[i], epoch) {
					replaySink++
				}
			}
		})
		serveNs += tr.timed("mds.Server.ServeDeferVisit", hi-lo, func() {
			srv.BeginTick()
			for i := lo; i < hi; i++ {
				if ok, _ := srv.ServeDeferVisit(entries[i], targets[i], epoch, false); ok {
					replaySink++
				}
			}
		})
		if (block+1)%epochTicks == 0 {
			endEpochNs += tr.timed("mds.Server.EndEpoch", 1, func() { srv.EndEpoch(epochTicks) })
			endEpochs++
		}
	}
	v["trace.record_ns_per_op"] = ratio(float64(recordNs), float64(n))
	// Self time: the server's own collector does what col just did.
	v["mds.serve_ns_per_op"] = ratio(float64(serveNs-recordNs), float64(n))
	v["mds.end_epoch_us"] = ratio(float64(endEpochNs), float64(endEpochs)) / 1e3
	v["trace.record_fresh_ns_per_op"] = tr.blocks("trace.Collector.RecordFreshRun", n, replayBlock, func(lo, hi int) {
		epoch := int64(lo / replayBlock / epochTicks)
		for i := lo; i < hi; i++ {
			if p := targets[i].Parent; p != nil {
				col.RecordFreshRun(entries[i].Key, p, epoch, 1)
			}
		}
	})

	// namespace, write side: promise + adopt new files under the ops'
	// parent directories, then resolve the just-created inodes (the
	// resolver's grow path).
	var parents []*namespace.Inode
	seenParent := make([]bool, tree.MaxIno()+1)
	for _, in := range distinct {
		if p := in.Parent; p != nil && !seenParent[p.Ino] {
			seenParent[p.Ino] = true
			parents = append(parents, p)
		}
	}
	if len(parents) == 0 {
		return nil, fmt.Errorf("replay %s: no directory to create under", w.Name)
	}
	names := make([]string, replayCreates)
	for i := range names {
		names[i] = fmt.Sprintf("~replay%07d", i)
	}
	created := make([]*namespace.Inode, replayCreates)
	var arena namespace.InodeArena
	var createErr error
	v["namespace.create_ns_per_op"] = tr.blocks("namespace.InodeArena.NewFile+Tree.AdoptOrExisting", replayCreates, replayBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			in, err := arena.NewFile(parents[i%len(parents)], names[i], 4096)
			if err != nil {
				createErr = err
				return
			}
			created[i], _ = tree.AdoptOrExisting(in)
		}
	})
	if createErr != nil {
		return nil, fmt.Errorf("replay %s: create: %w", w.Name, createErr)
	}
	v["namespace.resolve_fresh_ns_per_op"] = tr.blocks("namespace.Resolver.Entry/fresh", replayCreates, replayBlock, func(lo, hi int) {
		for _, in := range created[lo:hi] {
			replaySink += uint64(res.Entry(in).Auth)
		}
	})

	// The attachments only full_stack carries, over the same partition.
	tm := tenant.MustManager(fullStackTenants())
	if err := tm.Bind([]int{16, 16, 16, 16}); err != nil {
		return nil, err
	}
	v["tenant.take_ns_per_op"] = tr.blocks("tenant.Manager.Take", n, replayBlock, func(lo, hi int) {
		tm.BeginTick()
		for i := lo; i < hi; i++ {
			replaySink += uint64(tm.Take(i&3, 1))
		}
	})

	rm := replica.MustManager(fullStackReplicas())
	servers := c.Servers()
	env := replica.Env{
		Ranks:    len(servers),
		Eligible: func(namespace.MDSID) bool { return true },
		Load:     func(id namespace.MDSID) float64 { return servers[id].CurrentLoad() },
		Stats:    func(id namespace.MDSID, key namespace.FragKey) (int64, float64) { return servers[id].KeyStats(key) },
		Inodes:   part.GovernedInodes,
	}
	partEntries := part.Entries()
	v["replica.reconcile_us"] = tr.blocks("replica.Manager.Reconcile", 64, 1, func(lo, hi int) {
		rm.Reconcile(partEntries, env.Eligible)
	}) / 1e3
	v["replica.pump_us_per_tick"] = tr.blocks("replica.Manager.Pump", replayTicks, 1, func(lo, hi int) {
		rm.Pump(int64(lo), env)
	}) / 1e3

	v["audit.check_partition_ms"] = tr.blocks("audit.CheckPartition", 8, 1, func(lo, hi int) {
		replaySink += uint64(len(audit.CheckPartition(tree, part)))
	}) / 1e6

	jsonl := obs.NewJSONL(io.Discard)
	ev := obs.Event{Type: obs.EvRank, Fields: obs.F{
		"rank": 3, "epoch": 41, "load": 1987.5, "ops": 812345, "stalls": 1203,
		"heat": 517, "queued": 1, "active": 2, "up": true, "state": "active",
	}}
	v["obs.jsonl_write_ns_per_event"] = tr.blocks("obs.JSONL.Write", replayTicks*64, replayBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ev.Tick = int64(i)
			jsonl.Write(ev)
		}
	})

	rec := metrics.NewRecorder(len(servers))
	perMDS := make([]int, len(servers))
	for i := range perMDS {
		perMDS[i] = 2000
	}
	v["metrics.sample_tick_ns"] = tr.blocks("metrics.Recorder.SampleTick", replayTicks*64, replayBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rec.SampleTick(int64(i), perMDS, int64(i), int64(i))
		}
	})

	// rng: what Stream.Next is made of.
	src := rng.New(seed)
	v["rng.uint64n_ns"] = tr.blocks("rng.Source.Uint64n", n, replayBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			replaySink += src.Uint64n(1000003)
		}
	})
	zipf := rng.NewZipf(src, 0.98, 500)
	v["rng.zipf_next_ns"] = tr.blocks("rng.Zipf.Next", n, replayBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			replaySink += uint64(zipf.Next())
		}
	})
	return v, nil
}

// drawOps draws replayOps ops from a fresh generator, one client's
// block at a time (one span per block), and maps them onto tree.
func drawOps(tr *tracer, w workloadDef, seed uint64, tree *namespace.Tree) ([]workload.Op, error) {
	cfg := w.Config(seed)
	specs, err := cfg.Workload.Setup(namespace.NewTree(), cfg.Clients, rng.New(seed).Fork(1))
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", w.Name, err)
	}
	ops := make([]workload.Op, 0, replayOps)
	live := len(specs)
	drained := make([]bool, len(specs))
	for next := 0; len(ops) < replayOps && live > 0; next = (next + 1) % len(specs) {
		if drained[next] {
			continue
		}
		s := specs[next].Stream
		lo := len(ops)
		id := tr.begin("workload.Stream.Next")
		for len(ops) < replayOps && len(ops)-lo < replayBlock {
			op, ok := s.Next()
			if !ok {
				drained[next] = true
				live--
				break
			}
			ops = append(ops, op)
		}
		tr.end(id)
		tr.spans[id].Calls = int64(len(ops) - lo)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("replay %s: generator produced no ops", w.Name)
	}

	onto := func(in *namespace.Inode) (*namespace.Inode, error) {
		if in == nil {
			return nil, nil
		}
		m := tree.Get(in.Ino)
		if m == nil || m.Name != in.Name {
			return nil, fmt.Errorf("replay %s: scratch inode %d (%q) has no twin in the run's tree", w.Name, in.Ino, in.Name)
		}
		return m, nil
	}
	for i := range ops {
		op := &ops[i]
		if op.Target, err = onto(op.Target); err != nil {
			return nil, err
		}
		if op.Parent, err = onto(op.Parent); err != nil {
			return nil, err
		}
	}
	return ops, nil
}
