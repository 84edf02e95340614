// Package simtest holds what tests share: a lightweight balancer.View
// implementation over hand-built namespaces, so balancer and selector
// logic can be unit-tested without running a full cluster simulation,
// and the digest ledger behind the one -update flag (ledger.go), which
// pins seeded output across commits.
package simtest

import (
	"repro/internal/mds"
	"repro/internal/namespace"
)

// View is a configurable balancer.View for tests.
type View struct {
	TickV       int64
	EpochV      int64
	EpochTicksV int
	CapacityV   float64
	Servers     []*mds.Server
	Part        *namespace.Partition
	Mig         *mds.Migrator
	// HeldKeys are the subtree entries Held reports as pinned in place.
	HeldKeys map[namespace.FragKey]bool
}

// New builds a View over the tree with n fresh servers. Server capacity
// is 2000 ops/tick, history 6 windows, heat decay 0.9 (fast enough for
// unit tests).
func New(tree *namespace.Tree, n int) *View {
	part := namespace.NewPartition(tree, 0)
	v := &View{
		EpochTicksV: 10,
		CapacityV:   2000,
		Part:        part,
	}
	v.Mig = mds.NewMigrator(part, v.Up, v.Importable)
	for i := 0; i < n; i++ {
		v.Servers = append(v.Servers, mds.NewServer(namespace.MDSID(i), 2000, 6, 0.9))
	}
	return v
}

// Tick implements balancer.View.
func (v *View) Tick() int64 { return v.TickV }

// Epoch implements balancer.View.
func (v *View) Epoch() int64 { return v.EpochV }

// EpochTicks implements balancer.View.
func (v *View) EpochTicks() int { return v.EpochTicksV }

// NumMDS implements balancer.View.
func (v *View) NumMDS() int { return len(v.Servers) }

// Up implements balancer.View.
func (v *View) Up(id namespace.MDSID) bool {
	return int(id) < len(v.Servers) && v.Servers[id].Up()
}

// Importable implements balancer.View: up and not draining.
func (v *View) Importable(id namespace.MDSID) bool {
	return v.Up(id) && !v.Servers[id].Draining()
}

// Server implements balancer.View.
func (v *View) Server(id namespace.MDSID) *mds.Server { return v.Servers[id] }

// Partition implements balancer.View.
func (v *View) Partition() *namespace.Partition { return v.Part }

// Migrator implements balancer.View.
func (v *View) Migrator() *mds.Migrator { return v.Mig }

// Capacity implements balancer.View.
func (v *View) Capacity() float64 { return v.CapacityV }

// Held implements balancer.View.
func (v *View) Held(key namespace.FragKey) bool { return v.HeldKeys[key] }

// ServeN simulates n accesses to the inode on its authoritative server
// during the given epoch, refreshing the tick budget as needed and
// keeping the view's epoch in step.
func (v *View) ServeN(in *namespace.Inode, n int, epoch int64) {
	if epoch > v.EpochV {
		v.EpochV = epoch
	}
	e := v.Part.GoverningEntry(in)
	s := v.Servers[e.Auth]
	for i := 0; i < n; i++ {
		if !s.HasBudget() {
			s.BeginTick()
		}
		s.Serve(e, in, epoch)
	}
}

// EndEpoch closes the epoch on every server (epochTicks ticks long).
func (v *View) EndEpoch() {
	for _, s := range v.Servers {
		s.EndEpoch(v.EpochTicksV)
	}
}
