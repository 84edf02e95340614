package namespace

import (
	"testing"
	"testing/quick"
)

// buildRandomNamespace creates a three-level tree driven by the fuzz
// bytes: top dirs, nested dirs, and files.
func buildRandomNamespace(shape []uint8) *Tree {
	tr := NewTree()
	if len(shape) == 0 {
		return tr
	}
	tops := int(shape[0]%4) + 2
	for t := 0; t < tops; t++ {
		top, _ := tr.Mkdir(tr.Root(), fileName("top", t))
		subs := int(shape[t%len(shape)]%3) + 1
		for s := 0; s < subs; s++ {
			sub, _ := tr.Mkdir(top, fileName("sub", s))
			files := int(shape[(t+s)%len(shape)]%8) + 1
			for f := 0; f < files; f++ {
				_, _ = tr.Create(sub, fileName("f", f), int64(f))
			}
		}
	}
	return tr
}

// applyRandomPartition carves and splits based on the ops bytes and
// returns the partition.
func applyRandomPartition(tr *Tree, ops []uint8, nMDS int) *Partition {
	p := NewPartition(tr, 0)
	var dirs []*Inode
	tr.Walk(func(in *Inode) bool {
		if in.IsDir && in.Parent != nil {
			dirs = append(dirs, in)
		}
		return true
	})
	if len(dirs) == 0 {
		return p
	}
	for i, op := range ops {
		d := dirs[int(op)%len(dirs)]
		switch op % 3 {
		case 0, 1:
			if len(p.EntriesAt(d.Ino)) == 0 {
				e := p.Carve(d)
				p.SetAuth(e.Key, MDSID(int(op)%nMDS))
			}
		case 2:
			es := p.EntriesAt(d.Ino)
			if len(es) == 1 && len(childrenInFrag(d, es[0].Key.Frag)) > 1 {
				l, r, ok := p.SplitEntry(es[0].Key)
				if ok {
					p.SetAuth(l.Key, MDSID(i%nMDS))
					p.SetAuth(r.Key, MDSID((i+1)%nMDS))
				}
			}
		}
	}
	return p
}

// TestResolveChainConsistency: for every inode and any partition shape,
// the chain's last element is the governing authority, the chain has no
// adjacent duplicates, and its entry is the governing entry.
func TestResolveChainConsistency(t *testing.T) {
	f := func(shape, ops []uint8) bool {
		tr := buildRandomNamespace(shape)
		p := applyRandomPartition(tr, ops, 5)
		ok := true
		tr.Walk(func(in *Inode) bool {
			chain, entry := p.ResolveChainInto(nil, in)
			if len(chain) == 0 {
				ok = false
				return false
			}
			if chain[len(chain)-1] != entry.Auth {
				ok = false
				return false
			}
			if entry.Auth != p.GoverningEntry(in).Auth {
				ok = false
				return false
			}
			for i := 1; i < len(chain); i++ {
				if chain[i] == chain[i-1] {
					ok = false
					return false
				}
			}
			if p.GoverningEntry(in) != entry {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGovernedSizesTotalProperty: under any carve/split sequence, the
// governed sizes stay non-negative and sum to the namespace size, and —
// with every third file marked visited — each entry's SubtreeSizes,
// GovernedInodes and UnvisitedIn equal a recount by walking: the inodes
// whose governing entry it is, and the files (visited or not) below the
// children its fragment covers.
func TestGovernedSizesTotalProperty(t *testing.T) {
	f := func(shape, ops []uint8) bool {
		tr := buildRandomNamespace(shape)
		p := applyRandomPartition(tr, ops, 5)
		governed := make(map[FragKey]int)
		files := 0
		tr.Walk(func(in *Inode) bool {
			governed[p.GoverningEntry(in).Key]++
			if !in.IsDir {
				if files++; files%3 == 0 {
					in.MarkVisited()
				}
			}
			return true
		})
		sizes := p.SubtreeSizes()
		total := 0
		for _, e := range p.Entries() {
			sz := sizes[e.Key]
			if sz < 0 || sz != governed[e.Key] || p.GovernedInodes(e.Key) != sz {
				return false
			}
			total += sz
			spanFiles, spanUnvisited := 0, 0
			tr.Walk(func(in *Inode) bool {
				for c := in; !in.IsDir && c.Parent != nil; c = c.Parent {
					if c.Parent.Ino == e.Key.Dir && e.Key.Frag.Contains(HashName(c.Name)) {
						spanFiles++
						if !in.visited {
							spanUnvisited++
						}
						break
					}
				}
				return true
			})
			if u, n := p.UnvisitedIn(e.Key); u != spanUnvisited || n != spanFiles {
				return false
			}
		}
		return total == tr.NumInodes() && len(sizes) == p.NumEntries()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInodesPerMDSTotalProperty: per-MDS inode counts also sum to the
// namespace size.
func TestInodesPerMDSTotalProperty(t *testing.T) {
	f := func(shape, ops []uint8) bool {
		tr := buildRandomNamespace(shape)
		p := applyRandomPartition(tr, ops, 4)
		total := 0
		for _, n := range p.InodesPerMDS(4) {
			if n < 0 {
				return false
			}
			total += n
		}
		return total == tr.NumInodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAbsorbRestoresEnclosingAuth: carving a dir, re-assigning it, and
// absorbing it returns every inode to the enclosing subtree's authority.
func TestAbsorbRestoresEnclosingAuth(t *testing.T) {
	f := func(shape []uint8, pick uint8) bool {
		tr := buildRandomNamespace(shape)
		p := NewPartition(tr, 0)
		var dirs []*Inode
		tr.Walk(func(in *Inode) bool {
			if in.IsDir && in.Parent != nil {
				dirs = append(dirs, in)
			}
			return true
		})
		if len(dirs) == 0 {
			return true
		}
		d := dirs[int(pick)%len(dirs)]

		before := make(map[Ino]MDSID)
		tr.Walk(func(in *Inode) bool {
			before[in.Ino] = p.GoverningEntry(in).Auth
			return true
		})
		e := p.Carve(d)
		p.SetAuth(e.Key, 3)
		if !p.Absorb(e.Key) {
			return false
		}
		ok := true
		tr.Walk(func(in *Inode) bool {
			if p.GoverningEntry(in).Auth != before[in.Ino] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestVisitedCountsBounded: VisitedDesc/VisitedFiles never exceed the
// subtree totals under random visit sequences.
func TestVisitedCountsBounded(t *testing.T) {
	f := func(shape []uint8, visits []uint16) bool {
		tr := buildRandomNamespace(shape)
		var files []*Inode
		tr.Walk(func(in *Inode) bool {
			if !in.IsDir {
				files = append(files, in)
			}
			return true
		})
		if len(files) == 0 {
			return true
		}
		for _, v := range visits {
			in := files[int(v)%len(files)]
			if !in.Hot.EverAccessed() {
				in.MarkVisited()
			}
			in.Hot.Touch(int64(v % 7))
		}
		ok := true
		tr.Walk(func(in *Inode) bool {
			u, total := in.UnvisitedBelow()
			if in.IsDir && (u < 0 || u > total || total != in.SubtreeFiles()) {
				ok = false
				return false
			}
			if in.VisitedDesc() > in.SubtreeInodes() {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestResolverMatchesGoverningEntry is the per-directory memo's
// contract: through any interleaving of Carve / SplitEntry /
// MergeWithSibling / Absorb / SetAuth and file and directory creates —
// all after the resolver was made — Resolver.Entry(in) equals
// Partition.GoverningEntry(in) for every inode, including files in
// split directories, children of a split root and directories newer
// than the resolver; ChildEntry agrees with GoverningChildEntry for
// names not yet created; and the memo never holds more slots than the
// tree has directories.
func TestResolverMatchesGoverningEntry(t *testing.T) {
	f := func(shape, ops []uint8) bool {
		tr := buildRandomNamespace(shape)
		p := NewPartition(tr, 0)
		r := NewResolver(p)
		var arena InodeArena
		var dirs []*Inode
		tr.Walk(func(in *Inode) bool {
			if in.IsDir {
				dirs = append(dirs, in)
			}
			return true
		})
		agree := func() bool {
			ok := true
			tr.Walk(func(in *Inode) bool {
				ok = r.Entry(in) == p.GoverningEntry(in)
				if ok && in.IsDir {
					for k := 0; k < 8; k++ {
						name := fileName(in.Name+"x", k)
						ok = ok && r.ChildEntry(in, name) == p.GoverningChildEntry(in, name)
					}
				}
				return ok
			})
			return ok && len(r.slots) <= len(dirs)+1
		}
		if !agree() {
			return false
		}
		for i, op := range ops {
			d := dirs[int(op)%len(dirs)] // dirs[0] is the root
			es := p.EntriesAt(d.Ino)
			auth := MDSID(i % 5)
			switch op % 8 {
			case 0:
				if len(es) == 0 {
					p.SetAuth(p.Carve(d).Key, auth)
				}
			case 1:
				if len(es) > 0 {
					if l, _, ok := p.SplitEntry(es[i%len(es)].Key); ok {
						p.SetAuth(l.Key, auth)
					}
				}
			case 2:
				if len(es) > 0 {
					p.MergeWithSibling(es[i%len(es)].Key)
				}
			case 3:
				if len(es) > 1 || len(es) == 1 && d != tr.Root() {
					p.Absorb(es[i%len(es)].Key) // may leave a gap in a split directory
				}
			case 4:
				if len(es) > 0 {
					p.SetAuth(es[i%len(es)].Key, auth)
				}
			case 5:
				if _, err := tr.Create(d, fileName("new", i), 1); err != nil {
					return false
				}
			case 6:
				in, err := arena.NewFile(d, fileName("adopted", i), 1)
				if err != nil {
					return false
				}
				// A carved inode resolves before it is adopted.
				if r.Entry(in) != p.GoverningEntry(in) {
					return false
				}
				tr.AdoptOrExisting(in)
			case 7:
				sub, err := tr.Mkdir(d, fileName("dir", i))
				if err != nil {
					return false
				}
				dirs = append(dirs, sub)
			}
			if !agree() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
