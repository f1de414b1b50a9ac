//go:build !linux

package simmpi

// Without a way to hand the core over nobody polls: every wait parks.
const canYield = false

func yield() {}
