//go:build race

package experiments

// raceEnabled trims oracles whose large circuits only repeat, at many
// times the cost under race instrumentation, code paths the small
// circuits already drive; the plain `go test ./...` tier runs them all.
const raceEnabled = true
