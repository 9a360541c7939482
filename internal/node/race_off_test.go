//go:build !race

package node

// raceAllocSlack is zero without the race detector: allocation bounds
// hold exactly.
const raceAllocSlack = 0
