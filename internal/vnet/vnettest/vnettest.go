// Package vnettest builds vnet worlds for tests in other packages and waits
// on them in virtual time.
package vnettest

import (
	"testing"
	"time"

	"morpheus/internal/clock"
	"morpheus/internal/vnet"
)

// World returns an empty world on a fresh virtual clock. The calling test
// goroutine creates the clock, so it holds the run token and must wait
// only through the clock. Cleanups close the world and then stop the
// clock; cleanups registered later, such as node closes, run before both.
func World(t testing.TB, seed int64) (*vnet.World, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual()
	t.Cleanup(clk.Stop)
	w := vnet.NewWorld(seed, clk)
	t.Cleanup(func() { _ = w.Close() })
	return w, clk
}

// Eventually polls cond every 2 ms of virtual time until it holds, and
// fails the test once d of virtual time has passed. Each poll happens at a
// quiescent point of the simulation, so the outcome is deterministic.
func Eventually(t testing.TB, clk *clock.Virtual, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := clk.Now().Add(d)
	for clk.Now().Before(deadline) {
		if cond() {
			return
		}
		clk.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}
