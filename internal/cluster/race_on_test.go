//go:build race

package cluster

// raceBuild reports whether the race detector is compiled in.
const raceBuild = true
