//go:build race

package ingest

// raceEnabled reports that the race detector is on: its runtime
// allocates on behalf of the program (and sync.Pool stops pooling), so
// allocation budgets do not hold under it.
const raceEnabled = true
