package telemetry

import (
	"strings"
	"testing"
)

// TestEventKindString: the six crossing kinds render by the names
// arckshell's trace filters match on, and anything else still renders.
func TestEventKindString(t *testing.T) {
	want := []string{"acquire", "commit", "grant-inodes", "grant-pages", "rename-lock-acquire",
		"rename-lock-release"}
	for i, name := range want {
		if got := EventKind(i + 1).String(); got != name {
			t.Fatalf("EventKind(%d) = %q, want %q", i+1, got, name)
		}
	}
	for _, k := range []EventKind{0, EventKind(len(want) + 1), 200} {
		if s := k.String(); !strings.HasPrefix(s, "event(") {
			t.Fatalf("EventKind(%d) = %q, want the numeric fallback", k, s)
		}
	}
}
