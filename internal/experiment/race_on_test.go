//go:build race

package experiment

// raceBuild reports whether the race detector is compiled in.
const raceBuild = true
