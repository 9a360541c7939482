//go:build race

package node

// raceAllocSlack is what the race detector's runtime adds to a
// coordinated request's allocation count (measured: 6–7 per put or get).
const raceAllocSlack = 8
