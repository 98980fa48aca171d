//go:build race

package aae

const raceEnabled = true
