package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU returns the CPU time the calling OS thread has used. Time
// the hypervisor gives to other guests is not counted in it, unlike
// wall time; callers lock their goroutine to its thread.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}
