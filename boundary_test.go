package ckprivacy_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestLibraryDoesNotLinkDaemon keeps the library boundary: the public
// package, and the examples built only on it, link the paper's checking
// and enforcing code but not the daemon (its server, durable store and
// replication), the CLI's dataset loaders and load harness, the embedded
// HTTP docs, or net/http. cmd/ckprivacyd builds the daemon from the
// internal packages directly.
func TestLibraryDoesNotLinkDaemon(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "ckprivacy", "ckprivacy/examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	var deps []string
	for _, line := range strings.Split(string(out), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			deps = append(deps, line)
		}
	}
	linked := func(pkg string) bool {
		for _, d := range deps {
			if d == pkg || strings.HasPrefix(d, pkg+"/") {
				return true
			}
		}
		return false
	}
	if !linked("ckprivacy/internal/core") {
		t.Fatalf("go list output lacks ckprivacy/internal/core; the dependency walk did not run:\n%s", out)
	}
	for _, pkg := range []string{
		"ckprivacy/internal/server",
		"ckprivacy/internal/store",
		"ckprivacy/internal/replica",
		"ckprivacy/internal/dataload",
		"ckprivacy/internal/loadtest",
		"ckprivacy/docs",
		"net/http",
	} {
		if linked(pkg) {
			t.Errorf("%s is linked into the ckprivacy library or an example", pkg)
		}
	}
}
