//go:build !race

package atpg

const raceEnabled = false
