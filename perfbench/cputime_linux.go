package main

import (
	"syscall"
	"time"
	"unsafe"
)

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU returns the CPU time the calling OS thread has used. Call it
// only from a goroutine locked to its thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
