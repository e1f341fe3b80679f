//go:build !race

package topicmodel

const raceEnabled = false
