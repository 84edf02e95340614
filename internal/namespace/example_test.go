package namespace_test

import (
	"fmt"

	"repro/internal/namespace"
)

// Example demonstrates the dynamic subtree partitioning primitives:
// carving a subtree out of the namespace, handing it to another MDS,
// and splitting a directory into hash fragments.
func Example() {
	tree := namespace.NewTree()
	photos, _ := tree.MkdirAll("/home/alice/photos")
	for i := 0; i < 4; i++ {
		tree.Create(photos, fmt.Sprintf("img%d.jpg", i), 1<<20)
	}
	part := namespace.NewPartition(tree, 0) // rank 0 holds the root subtree

	img, _ := tree.Lookup("/home/alice/photos/img2.jpg")
	fmt.Println("before:", part.GoverningEntry(img).Auth)

	// Carve /home/alice/photos into its own subtree and migrate it.
	e := part.Carve(photos)
	part.SetAuth(e.Key, 3)
	fmt.Println("after: ", part.GoverningEntry(img).Auth)

	// Split the subtree into two dirfrags (each keeps rank 3).
	l, r, _ := part.SplitEntry(e.Key)
	fmt.Println("fragments:", l.Key.Frag, r.Key.Frag)

	// Output:
	// before: 0
	// after:  3
	// fragments: 0/1 1/1
}
