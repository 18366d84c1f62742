//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector. The zero-allocation tests skip under it: sync.Pool drops items
// at random there, so the chip's pooled evaluation scratch reallocates.
const raceEnabled = true
