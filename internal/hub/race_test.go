//go:build race

package hub

func init() { raceEnabled = true }
