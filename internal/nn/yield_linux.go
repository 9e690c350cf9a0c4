package nn

import "syscall"

// osYield offers this thread's CPU to another runnable thread
// (sched_yield); with none waiting it returns at once.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
