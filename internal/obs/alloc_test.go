//go:build !race

// testing.AllocsPerRun is meaningless under the race detector, so this
// file is excluded from `make race` / `make check`.

package obs

import "testing"

// TestAppendJSONZeroAlloc pins the point of the typed arms: an event
// whose fields all take them is encoded without allocating (no boxed
// key, no key slice, no reflection).
func TestAppendJSONZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, 512)
	for _, name := range []string{"batch_flush", "rank"} {
		e := benchEvents()[name]
		if n := testing.AllocsPerRun(100, func() { buf = e.AppendJSON(buf[:0]) }); n != 0 {
			t.Errorf("AppendJSON allocates %.1f times per %s event, want 0", n, name)
		}
	}
}
