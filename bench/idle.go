package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// A virtual CPU that goes idle halts, and on an oversubscribed host a
// halted vCPU is descheduled: the next wake-up then waits for the host's
// scheduler, anything from 50 µs to several milliseconds, and it does so
// on every hop of a steady workload's path (timer → write → daemon read →
// worker → poll → response). On the builder's box that wait, not the
// daemon, set the steady median (0.9 ms in a quiet minute, 4–6 ms in a
// busy one, set-up 0.2–1.5 s). So while a workload runs, one process per
// CPU spins at the scheduler's idle priority: the guest never halts, any
// real thread preempts a spinner at once, and the spinners' CPU time is
// charged to neither the child nor this process.

const spinEnv = "QUICKSAND_BENCH_SPIN"

// init turns a process started by startSpinners into a spinner. It sits
// in init so that the test binary, which has its own main, can be
// re-executed as a spinner too.
func init() {
	if os.Getenv(spinEnv) == "" {
		return
	}
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// No idle class here: the lowest ordinary priority is the next best.
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	}
	for {
		// Reading the clock keeps the loop from monopolising a core that
		// shares its execution units with a sibling.
		_ = time.Now()
	}
}

// startSpinners starts one spinner per CPU and returns the function that
// stops them and waits until each has ended. A spinner that cannot be
// started is skipped: the run is then merely as noisy as the box.
func startSpinners() (n int, stop func()) {
	self, err := os.Executable()
	if err != nil {
		return 0, func() {}
	}
	var procs []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), spinEnv+"=1", "GOMAXPROCS=1")
		// A spinner must not outlive a benchmark that dies.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if cmd.Start() == nil {
			procs = append(procs, cmd)
		}
	}
	return len(procs), func() {
		for _, cmd := range procs {
			_ = cmd.Process.Kill()
			_ = cmd.Wait() // "signal: killed" is how a spinner ends
		}
	}
}

// sleepUntil blocks until t. The runtime's own timers wake through
// epoll_wait, whose timeout counts whole milliseconds, so time.Sleep
// overshoots by up to one; nanosleep is held to the kernel's 50 µs timer
// slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // a signal ends it early: go round again
	}
}
