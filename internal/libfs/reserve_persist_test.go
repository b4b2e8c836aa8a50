package libfs

import (
	"testing"

	"arckfs/internal/pmem"
)

// TestReserveDentryQueuesRecLenWriteback pins the arcklint flushcheck fix
// in reserveDentry: the reserved record length must be queued for
// write-back by reserveDentry itself, not left to fillDentry. When the
// auxiliary insert fails (duplicate name), the slot stays reserved but
// dead and fillDentry never runs — an unflushed length would read back
// as 0 after a crash, and layout.ScanTail treats a zero length as the
// append frontier, hiding every later record in the page.
func TestReserveDentryQueuesRecLenWriteback(t *testing.T) {
	fs := newFS(t, BugAuxCoreRace)
	w := th(t, fs)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}

	// The §4.4 window opens between reserveDentry+aux insert and
	// fillDentry: at that instant the only queued write-back can be the
	// one reserveDentry itself issued for the record-length field.
	var pendingInWindow int
	fs.dev.SetObserver(pmem.OnSite(siteCreateBetweenAuxAndCore, func() {
		pendingInWindow = w.pb.Pending()
	}))
	if err := w.Create("/d/a"); err != nil {
		t.Fatal(err)
	}
	if pendingInWindow == 0 {
		t.Fatal("reserveDentry did not queue a write-back for the reserved record length; " +
			"a crash before fillDentry would lose it and truncate log scans at the slot")
	}

	// The dead-slot path proper: a duplicate create reserves a slot, the
	// auxiliary insert fails, fillDentry never runs. The thread's next
	// barrier must still have the length line queued so the dead slot is
	// persistently skippable rather than a scan terminator.
	if err := w.Create("/d/a"); err == nil {
		t.Fatal("duplicate create unexpectedly succeeded")
	}
	if w.pb.Pending() == 0 {
		t.Fatal("failed create left the dead slot's record length unqueued")
	}
	w.pb.Barrier()
}
