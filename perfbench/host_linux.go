//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps the open-loop generator until an op is due. time.Sleep
// wakes with millisecond resolution when every goroutine is idle (the
// runtime's netpoll timeout is in whole milliseconds), which would add up
// to a millisecond of generator lateness to every open-loop latency. A
// non-blocking timerfd is instead woken by the netpoller on readiness,
// within tens of microseconds.
type pacer struct {
	fd  uintptr // kept apart: File.Fd would put the file in blocking mode
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d.
func (p *pacer) sleep(d time.Duration) error {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }

// syncFS writes every dirty page to disk, so the kernel's writeback of
// the set-up's files does not land in the measured phase.
func syncFS() { syscall.Sync() }
