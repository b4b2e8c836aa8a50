//go:build unix && !race

package pmem

import (
	"fmt"
	"runtime"
	"syscall"
)

// mapsDevices reports that New maps its device outside the Go heap.
const mapsDevices = true

// newMapping maps size bytes of anonymous private memory, as a DAX mapping
// of a PM namespace would be: outside the Go heap, so the collector paces on
// the file system's own heap and not on the device, and no RSS until a page
// is first stored to. The finalizer unmaps it once the mapping, and so its
// Device, is unreachable.
func newMapping(size int64) *mapping {
	buf, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("pmem: mapping a %d-byte device: %v", size, err))
	}
	m := &mapping{buf: buf}
	runtime.SetFinalizer(m, func(m *mapping) { syscall.Munmap(m.buf) })
	return m
}
