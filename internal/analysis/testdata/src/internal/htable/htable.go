// Package htable mimics the directory hash table's bucket-lock entry
// points for lockorder fixtures.
package htable

type LockedBucket struct{}

type Table struct{}

func (t *Table) WithBucket(name string, fn func(LockedBucket)) { fn(LockedBucket{}) }

func (t *Table) LockAll() func() { return func() {} }
