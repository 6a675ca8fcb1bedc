//go:build race

package sched

// raceEnabled reports whether the race detector is compiled in; the
// latency bound of TestSpawnWakesParkedWorker does not hold under it.
const raceEnabled = true
