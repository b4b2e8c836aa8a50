package hlock

import (
	"sync"
	"testing"
	"time"
)

func TestSpinLockMutualExclusion(t *testing.T) {
	var l SpinLock
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestSpinLockTryLock(t *testing.T) {
	var l SpinLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	if !l.Locked() {
		t.Fatal("Locked() = false while held")
	}
	l.Unlock()
	if l.Locked() {
		t.Fatal("Locked() = true after unlock")
	}
}

func TestSpinLockUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l SpinLock
	l.Unlock()
}

// TestCountedSpin pins the accounting CountedSpin adds to a SpinLock: it
// still excludes, every acquisition is counted exactly once whichever way
// it was taken, only a Lock that waited counts as contended, and a failed
// TryLock counts nothing.
func TestCountedSpin(t *testing.T) {
	var l CountedSpin
	for i := 0; i < 10; i++ {
		l.Lock()
		l.Unlock()
	}
	if acq, cont := l.Counts(); acq != 10 || cont != 0 {
		t.Fatalf("uncontended: acquisitions=%d contended=%d, want 10 and 0", acq, cont)
	}
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if acq, cont := l.Counts(); acq != 11 || cont != 0 {
		t.Fatalf("after one TryLock hit and one miss: acquisitions=%d contended=%d, want 11 and 0", acq, cont)
	}

	const workers, rounds = 8, 1000
	var shared CountedSpin
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				shared.Lock()
				counter++
				shared.Unlock()
			}
		}()
	}
	wg.Wait()
	acq, cont := shared.Counts()
	if counter != workers*rounds || acq != workers*rounds {
		t.Fatalf("counter=%d acquisitions=%d, want %d each", counter, acq, workers*rounds)
	}
	if cont < 0 || cont > acq {
		t.Fatalf("contended=%d outside [0, acquisitions=%d]", cont, acq)
	}
}

func TestRWSpinReadersShareWritersExclude(t *testing.T) {
	var l RWSpin
	l.RLock()
	if !l.TryRLock() {
		t.Fatal("second reader blocked")
	}
	if l.TryLock() {
		t.Fatal("writer acquired with readers present")
	}
	l.RUnlock()
	l.RUnlock()
	if !l.TryLock() {
		t.Fatal("writer blocked on free lock")
	}
	if l.TryRLock() {
		t.Fatal("reader acquired with writer present")
	}
	l.Unlock()
}

// TestRWSpinHasNoWriterPreference pins what RWSpin's doc says: a Lock
// waiting on a shared holder does not stop new shared holders, so shared
// holds that overlap, each taken before the last one ends, keep the
// writer out until none is left.
func TestRWSpinHasNoWriterPreference(t *testing.T) {
	var l RWSpin
	l.RLock()
	waiting, locked := make(chan struct{}), make(chan struct{})
	go func() {
		close(waiting)
		l.Lock()
		close(locked)
		l.Unlock()
	}()
	<-waiting
	for i := range 5 {
		time.Sleep(2 * time.Millisecond) // let the writer spin on the held word
		if !l.TryRLock() {
			t.Fatalf("hand-off %d: a shared holder was refused while a writer waited", i)
		}
		l.RUnlock() // the earlier holder leaves; the new one still holds
		select {
		case <-locked:
			t.Fatalf("hand-off %d: the writer got in under a shared hold", i)
		default:
		}
	}
	l.RUnlock()
	select {
	case <-locked:
	case <-time.After(10 * time.Second):
		t.Fatal("the writer did not get in once no shared holder was left")
	}
}

func TestRWSpinCounter(t *testing.T) {
	var l RWSpin
	var shared int
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Lock()
				shared++
				l.Unlock()
				l.RLock()
				_ = shared
				l.RUnlock()
			}
		}()
	}
	wg.Wait()
	if shared != 2000 {
		t.Fatalf("shared = %d", shared)
	}
}

func TestRWSpinMisuse(t *testing.T) {
	for name, f := range map[string]func(){
		"RUnlock": func() { var l RWSpin; l.RUnlock() },
		"Unlock":  func() { var l RWSpin; l.Unlock() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of unheld lock did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBRLockReadersShareWritersExclude(t *testing.T) {
	var l BRLock
	s1 := l.RLock()
	s2 := l.RLock()
	if l.TryLock() {
		t.Fatal("writer acquired with readers present")
	}
	l.RUnlock(s1)
	l.RUnlock(s2)
	if !l.TryLock() {
		t.Fatal("writer blocked on free lock")
	}
	if !l.Locked() {
		t.Fatal("Locked() = false while held")
	}
	l.Unlock()
	if l.Locked() {
		t.Fatal("Locked() = true after unlock")
	}
}

// TestBRLockDowngrade: a downgraded hold admits readers and keeps writers
// out until its token is released.
func TestBRLockDowngrade(t *testing.T) {
	var l BRLock
	l.Lock()
	s := l.Downgrade()
	r := l.RLock()
	if l.TryLock() {
		t.Fatal("writer acquired beside a downgraded hold")
	}
	l.RUnlock(r)
	if l.TryLock() {
		t.Fatal("writer acquired before the downgraded hold was released")
	}
	l.RUnlock(s)
	if !l.TryLock() {
		t.Fatal("writer blocked once the downgraded hold was released")
	}
	l.Unlock()
}

func TestBRLockCounter(t *testing.T) {
	var l BRLock
	var shared int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Lock()
				shared++
				l.Unlock()
				s := l.RLock()
				_ = shared
				l.RUnlock(s)
			}
		}()
	}
	wg.Wait()
	if shared != 4000 {
		t.Fatalf("shared = %d, want 4000", shared)
	}
}

// TestBRLockWriterNotStarved pins the property BRLock exists for: an
// exclusive acquisition completes while a stream of readers keeps
// arriving, because new readers back off behind the writer flag.
func TestBRLockWriterNotStarved(t *testing.T) {
	var l BRLock
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := l.RLock()
				l.RUnlock(s)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			l.Lock()
			l.Unlock()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("writer starved behind continuous readers")
	}
	close(stop)
	wg.Wait()
}

func TestBRLockMisuse(t *testing.T) {
	for name, f := range map[string]func(){
		"RUnlock": func() { var l BRLock; l.RUnlock(0) },
		"Unlock":  func() { var l BRLock; l.Unlock() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of unheld lock did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLeaseLockBasic(t *testing.T) {
	var l LeaseLock
	if !l.TryAcquire(1, time.Minute) {
		t.Fatal("acquire on free lease failed")
	}
	if l.TryAcquire(2, time.Minute) {
		t.Fatal("second owner acquired a live lease")
	}
	if l.Holder() != 1 {
		t.Fatalf("Holder = %d", l.Holder())
	}
	// Re-acquire by the same owner extends the lease.
	if !l.TryAcquire(1, time.Minute) {
		t.Fatal("holder could not extend its lease")
	}
	if !l.Release(1) {
		t.Fatal("release by holder failed")
	}
	if l.Release(1) {
		t.Fatal("double release succeeded")
	}
	if !l.TryAcquire(2, time.Minute) {
		t.Fatal("acquire after release failed")
	}
}

func TestLeaseLockExpiry(t *testing.T) {
	var l LeaseLock
	now := time.Unix(1000, 0)
	l.SetClock(func() time.Time { return now })
	if !l.TryAcquire(1, 10*time.Second) {
		t.Fatal("acquire failed")
	}
	now = now.Add(5 * time.Second)
	if l.TryAcquire(2, 10*time.Second) {
		t.Fatal("lease stolen before expiry")
	}
	now = now.Add(6 * time.Second)
	if l.Holder() != 0 {
		t.Fatalf("expired lease has holder %d", l.Holder())
	}
	if !l.TryAcquire(2, 10*time.Second) {
		t.Fatal("expired lease not stealable")
	}
	// The original owner's release must now fail: it lost the lease.
	if l.Release(1) {
		t.Fatal("stale owner released a stolen lease")
	}
}

func TestLeaseLockZeroOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l LeaseLock
	l.TryAcquire(0, time.Second)
}
