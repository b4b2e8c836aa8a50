// Package telemetry mimics the counter registry for counterreg fixtures.
package telemetry

type Set struct{}

func (s *Set) Gauge(name string, fn func() int64) {}
