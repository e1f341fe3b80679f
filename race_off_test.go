//go:build !race

package ksir

const raceEnabled = false
