// Package rcu mimics the real RCU API surface for rcusection fixtures.
// The bodies are irrelevant; only the (package suffix, type, method)
// shapes matter.
package rcu

type Domain struct{}

func (d *Domain) Synchronize()       {}
func (d *Domain) Barrier()           {}
func (d *Domain) Defer(fn func())    {}
func (d *Domain) Retire(r Reclaimer) {}
func (d *Domain) Pending() int       { return 0 }
func (d *Domain) Register() Reader   { return Reader{} }

type Reclaimer interface{ Reclaim() }

type Reader struct{}

func (r *Reader) ReadLock()    {}
func (r *Reader) ReadUnlock()  {}
func (r *Reader) Active() bool { return false }
