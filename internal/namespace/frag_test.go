package namespace

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"
)

func TestWholeFragContainsEverything(t *testing.T) {
	f := WholeFrag
	for _, h := range []uint32{0, 1, 0xffffffff, 0x80000000} {
		if !f.Contains(h) {
			t.Fatalf("whole frag must contain %x", h)
		}
	}
	if !f.IsWhole() {
		t.Fatal("IsWhole")
	}
}

func TestFragSplitPartitions(t *testing.T) {
	// Property: a fragment's two halves partition exactly its hash span.
	f := func(h uint32, depth uint8) bool {
		frag := WholeFrag
		for i := uint8(0); i < depth%8; i++ {
			l, r := frag.Split()
			if frag.Contains(h) {
				// h must land in exactly one half.
				if l.Contains(h) == r.Contains(h) {
					return false
				}
				if l.Contains(h) {
					frag = l
				} else {
					frag = r
				}
			} else {
				if l.Contains(h) || r.Contains(h) {
					return false
				}
				frag = l
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFragSplitParentRoundtrip(t *testing.T) {
	f := Frag{Value: 0b101, Bits: 3}
	l, r := f.Split()
	if l.Parent() != f || r.Parent() != f {
		t.Fatal("split/parent roundtrip")
	}
	if l.Sibling() != r || r.Sibling() != l {
		t.Fatal("sibling")
	}
}

func TestFragParentPanicsOnWhole(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Parent of whole frag did not panic")
		}
	}()
	WholeFrag.Parent()
}

func TestFragString(t *testing.T) {
	if WholeFrag.String() != "*" {
		t.Fatal("whole string")
	}
	f := Frag{Value: 0b10, Bits: 2}
	if f.String() != "10/2" {
		t.Fatalf("String = %q", f.String())
	}
}

func TestHashNameDeterministic(t *testing.T) {
	if HashName("abc") != HashName("abc") {
		t.Fatal("hash not deterministic")
	}
	if HashName("abc") == HashName("abd") {
		t.Fatal("suspicious hash collision on near-identical names")
	}
}

func TestFragSplitBalancesHashes(t *testing.T) {
	// The two halves of the whole fragment should each receive roughly
	// half of real-world names.
	l, r := WholeFrag.Split()
	left := 0
	const n = 10000
	for i := 0; i < n; i++ {
		h := HashName(fileName("f", i))
		if l.Contains(h) {
			left++
		} else if !r.Contains(h) {
			t.Fatal("hash in neither half")
		}
	}
	frac := float64(left) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("left half got %v of names, want ~0.5", frac)
	}
}

// TestHashNameMatchesFNV pins the inlined hash bit for bit against the
// library it replaced — hash/fnv's FNV-1a through fmix32. Fragment
// membership, Dir-Hash pinning and every recorded run digest depend on
// these bits.
func TestHashNameMatchesFNV(t *testing.T) {
	ref := func(name string) uint32 {
		h := fnv.New32a()
		h.Write([]byte(name))
		return fmix32(h.Sum32())
	}
	names := []string{"", "a", "/", "\x00", "\xff\xfe", "ünïcødé", "目录/文件", "c007.f0000123", strings.Repeat("long", 300)}
	for i := 0; i < 4000; i++ {
		names = append(names, fileName("f", i), fmt.Sprintf("c%03d.f%07d", i%64, i*7919))
	}
	for _, n := range names {
		if got, want := HashName(n), ref(n); got != want {
			t.Fatalf("HashName(%q) = %#x, hash/fnv+fmix32 gives %#x", n, got, want)
		}
	}
}
