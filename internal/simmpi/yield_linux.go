package simmpi

import "syscall"

// canYield says that yield does something: only then does anybody poll (Poll).
const canYield = true

// yield offers the core this thread runs on to any other thread that could
// run there now — sched_yield(2). It comes straight back if there is none.
func yield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
