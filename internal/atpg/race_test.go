//go:build race

package atpg

// raceEnabled trims oracles whose large circuits only repeat, at many
// times the cost under the race detector, what the small ones check.
const raceEnabled = true
