package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeScript pipes README's session through the shell and checks
// what each command prints: the release reaches the kernel's verifier,
// stats shows it, and spans prints the recorded operations.
func TestReadmeScript(t *testing.T) {
	script := []string{"mkdir /d", "create /d/f", "write /d/f hi", "release", "stats", "spans 3", "top", "quit"}
	var out strings.Builder
	if err := run(strings.NewReader(strings.Join(script, "\n")+"\n"), &out); err != nil {
		t.Fatal(err)
	}
	// The text after the k-th prompt is the k-th command's output.
	got := strings.Split(out.String(), "arckfs+ > ")[1:]
	if len(got) != len(script) {
		t.Fatalf("%d prompts answered, want %d:\n%s", len(got), len(script), out.String())
	}
	byCmd := make(map[string]string, len(script))
	for i, cmd := range script {
		byCmd[cmd] = got[i]
		if strings.Contains(got[i], "error:") || strings.Contains(got[i], "unknown command") {
			t.Errorf("%q printed %q", cmd, got[i])
		}
	}

	m := regexp.MustCompile(`"kernel\.verifications": (\d+)`).FindStringSubmatch(byCmd["stats"])
	if m == nil {
		t.Fatalf("stats has no kernel.verifications counter:\n%s", byCmd["stats"])
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Errorf("stats shows kernel.verifications 0 after a release")
	}
	if !regexp.MustCompile(`(?m)^  #\d+ +\w+ +app=1 `).MatchString(byCmd["spans 3"]) {
		t.Errorf("spans 3 printed no span:\n%s", byCmd["spans 3"])
	}
	if !strings.Contains(byCmd["top"], "syscalls") {
		t.Errorf("top printed no table header:\n%s", byCmd["top"])
	}
}
