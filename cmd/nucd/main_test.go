package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestNucdLinksNoHTTP: nucd's debug listener answers its GETs itself, so
// the daemon links no net/http and none of the TLS and certificate stack
// that comes with it — half the binary, and a quarter second of link time
// on every build that starts a served cluster.
func TestNucdLinksNoHTTP(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	for _, banned := range []string{"net/http", "crypto/tls", "crypto/x509"} {
		if slices.Contains(deps, banned) {
			t.Errorf("cmd/nucd links %s (%d packages in all)", banned, len(deps))
		}
	}
}
