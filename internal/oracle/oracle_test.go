package oracle

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNotLinkedIntoShippedBinaries keeps the reference bucketizer out of
// production: no package the public API, the commands or the examples
// depend on may import this one.
func TestNotLinkedIntoShippedBinaries(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps",
		"ckprivacy", "ckprivacy/cmd/...", "ckprivacy/examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	deps := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		deps[strings.TrimSpace(line)] = true
	}
	if !deps["ckprivacy/internal/bucket"] {
		t.Fatalf("go list output lacks ckprivacy/internal/bucket; the dependency walk did not run:\n%s", out)
	}
	if deps["ckprivacy/internal/oracle"] {
		t.Fatal("ckprivacy/internal/oracle is linked into a shipped binary")
	}
}
