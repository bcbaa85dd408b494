//go:build race

package lp_test

func init() { raceEnabled = true }
