//go:build race

package fuzz

func init() { raceEnabled = true }
