//go:build !unix || race

package pmem

// mapsDevices reports that New allocates its device on the Go heap: the
// race detector keeps shadow memory only for the Go heap and Go data, so a
// -race build must see every device byte there.
const mapsDevices = false

func newMapping(size int64) *mapping { return &mapping{buf: make([]byte, size)} }
