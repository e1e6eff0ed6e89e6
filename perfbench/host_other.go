//go:build !linux

package main

import "time"

// pacer sleeps the open-loop generator until an op is due (with the
// runtime timer's resolution; see host_linux.go).
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error { time.Sleep(d); return nil }

func (p *pacer) close() error { return nil }

// syncFS is a no-op here (see host_linux.go).
func syncFS() {}
