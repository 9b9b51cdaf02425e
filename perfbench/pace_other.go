//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep where timerfd is not available; the
// overshoot shows in loadgen.late_p99_ms.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) waitUntil(due time.Time) error {
	time.Sleep(time.Until(due))
	return nil
}

func (p *pacer) close() {}
