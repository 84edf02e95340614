package mds

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/namespace"
)

// TestMigratorConservationProperty: across any sequence of submits and
// ticks, the cumulative migrated-inode count equals the sum of the
// completed tasks' sizes, and task states account for every submission.
func TestMigratorConservationProperty(t *testing.T) {
	f := func(sizes []uint8, routes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		tr := namespace.NewTree()
		p := namespace.NewPartition(tr, 0)
		var keys []namespace.FragKey
		for i, sz := range sizes {
			d, err := tr.Mkdir(tr.Root(), fmt.Sprintf("d%02d", i))
			if err != nil {
				return false
			}
			for j := 0; j < int(sz%20)+1; j++ {
				if _, err := tr.Create(d, fmt.Sprintf("f%02d", j), 1); err != nil {
					return false
				}
			}
			keys = append(keys, p.Carve(d).Key)
		}
		m := newMigrator(p)
		var tasks []*ExportTask
		for i, k := range keys {
			to := namespace.MDSID(1)
			if i < len(routes) {
				to = namespace.MDSID(routes[i]%3) + 1
			}
			tasks = append(tasks, m.Submit(k, 0, to, 1, int64(i)))
		}
		for tick := int64(0); tick < 200; tick++ {
			m.Tick(tick)
		}
		var done, dropped int64
		var movedInodes int64
		for _, task := range tasks {
			switch task.State {
			case TaskDone:
				done++
				movedInodes += int64(task.Inodes)
			case TaskDropped:
				dropped++
			default:
				return false // nothing may be left in flight after 200 ticks
			}
		}
		if done != m.CompletedTasks() || dropped != m.DroppedTasks() {
			return false
		}
		if done+dropped != m.SubmittedTasks() {
			return false
		}
		if movedInodes != m.MigratedInodes() {
			return false
		}
		// Completed tasks actually changed authority.
		for _, task := range tasks {
			if task.State == TaskDone {
				e, ok := p.EntryAt(task.Key)
				if !ok || e.Auth != task.To {
					return false
				}
			}
		}
		return m.QueuedTasks() == 0 && m.ActiveTasks() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestServerAccountingProperty: served + stalled interactions never
// exceed offered work, and per-epoch loads reconstruct the op total.
func TestServerAccountingProperty(t *testing.T) {
	f := func(bursts []uint8) bool {
		if len(bursts) > 30 {
			bursts = bursts[:30]
		}
		tr := namespace.NewTree()
		d, _ := tr.Mkdir(tr.Root(), "d")
		in, _ := tr.Create(d, "f", 1)
		p := namespace.NewPartition(tr, 0)
		e := p.GoverningEntry(in)

		s := NewServer(0, 10, 4, 0.9)
		var served int64
		for tick, b := range bursts {
			s.BeginTick()
			offered := int(b % 17)
			for i := 0; i < offered; i++ {
				if s.Serve(e, in, int64(tick/10)) {
					served++
				} else {
					s.AddStalls(1)
				}
			}
			if s.OpsThisTick() > 10 {
				return false // capacity must bound per-tick service
			}
			if (tick+1)%10 == 0 {
				s.EndEpoch(10)
			}
		}
		s.EndEpoch(len(bursts) % 10)
		if served != s.OpsTotal() {
			return false
		}
		// Reconstruct total ops from the load history.
		var fromLoads float64
		history := s.LoadHistory()
		for i, l := range history {
			epochLen := 10.0
			if i == len(history)-1 {
				rem := len(bursts) % 10
				if rem == 0 {
					rem = 1
				}
				epochLen = float64(rem)
			}
			fromLoads += l * epochLen
		}
		diff := fromLoads - float64(served)
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
