//go:build race

package prog

func init() { raceEnabled = true }
