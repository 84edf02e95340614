//go:build !race

// Allocation counts are meaningless under the race detector, so this
// file is excluded from `make race` / `make check`; the plain
// `go test ./...` of tier-1 and the CI "Alloc" step run it.

package workload

import (
	"runtime"
	"testing"

	"repro/internal/namespace"
)

// TestStreamNextAllocFree: once the first refill has sized a stream's
// buffer, Draw allocates nothing — except MD, whose create names cost
// one chunk allocation per nameChunk creates. (Counted from MemStats:
// testing.AllocsPerRun rounds the per-call average down to an integer,
// which hides one allocation per file of several ops.)
func TestStreamNextAllocFree(t *testing.T) {
	for name := range steadyGens {
		s := steadyStream(t, name, namespace.NewTree())
		for i := 0; i < 100; i++ {
			s.Draw(&sinkOp) // past the first directory change: the buffer is at full size
		}
		ceiling := 0.0
		if name == "MD" {
			ceiling = 1.0 / nameChunk
		}
		const n = 64 * 300
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if !s.Draw(&sinkOp) {
				t.Fatalf("%s: stream ended inside the measurement", name)
			}
		}
		runtime.ReadMemStats(&after)
		// One per thousand ops of slack for the runtime's own (a
		// concurrent GC cycle allocates a handful); one allocation per
		// file would be seventy times that.
		if got := float64(after.Mallocs - before.Mallocs); got > ceiling*n+n/1000 {
			t.Errorf("%s: %.4f allocs per Draw, want <= %.4f", name, got/n, ceiling)
		}
	}
}

// TestNameSeqAllocs: once its buffer is sized, a nameSeq allocates one
// string per nameChunk names and nothing per name.
func TestNameSeqAllocs(t *testing.T) {
	s := newNameSeq("page", 6, ".html", 0, 1<<30)
	got := testing.AllocsPerRun(100, func() {
		for range nameChunk {
			sinkName = s.next()
		}
	})
	if got != 1 {
		t.Errorf("%v allocations per %d names, want 1", got, nameChunk)
	}
}

var sinkName string
