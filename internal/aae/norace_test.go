//go:build !race

package aae

const raceEnabled = false
