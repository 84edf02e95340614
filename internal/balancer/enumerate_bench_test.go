package balancer

import (
	"fmt"
	"testing"

	"repro/internal/namespace"
	"repro/internal/simtest"
)

// BenchmarkEnumerateWide measures candidate enumeration over a wide,
// two-level namespace where adaptive refinement picks every top-level
// directory in turn. Each pick used to re-scan the children of every
// other heavy-but-unrefinable candidate — O(picks × candidates ×
// children) — which the per-candidate child memo collapses to one scan
// per candidate.
func BenchmarkEnumerateWide(b *testing.B) {
	const (
		wide     = 48 // top-level dirs under /data
		subdirs  = 4  // refinable children per top-level dir
		files    = 32 // direct files per top-level dir
		subFiles = 8  // files per subdir
	)
	tree := namespace.NewTree()
	data, err := tree.MkdirAll("/data")
	if err != nil {
		b.Fatal(err)
	}
	var leaves []*namespace.Inode
	for d := 0; d < wide; d++ {
		dir, err := tree.Mkdir(data, fmt.Sprintf("d%03d", d))
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < files; f++ {
			in, err := tree.Create(dir, fmt.Sprintf("f%04d", f), 1)
			if err != nil {
				b.Fatal(err)
			}
			leaves = append(leaves, in)
		}
		for s := 0; s < subdirs; s++ {
			sub, err := tree.Mkdir(dir, fmt.Sprintf("s%02d", s))
			if err != nil {
				b.Fatal(err)
			}
			for f := 0; f < subFiles; f++ {
				in, err := tree.Create(sub, fmt.Sprintf("f%04d", f), 1)
				if err != nil {
					b.Fatal(err)
				}
				leaves = append(leaves, in)
			}
		}
	}
	v := simtest.New(tree, 2)
	for e := 0; e < 2; e++ {
		for _, in := range leaves {
			v.ServeN(in, 1, int64(e))
		}
		v.EndEpoch()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := Enumerate(v, 0, heatRanking(v.Servers[0], 1), 4096)
		if len(cands) < wide {
			b.Fatalf("candidates = %d, want at least the %d refined dirs", len(cands), wide)
		}
	}
}
