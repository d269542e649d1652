package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunUnknownTarget: an unknown -target is a usage error (exit 2).
func TestRunUnknownTarget(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-target", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("run(-target nope) = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unknown -target") {
		t.Fatalf("stderr missing diagnosis: %s", errb.String())
	}
}

// TestRunVerifiesANuc: a small anuc exploration verifies (exit 0) and
// prints the verdict on stdout.
func TestRunVerifiesANuc(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-target", "anuc", "-n", "3", "-f", "0", "-bound", "4"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "verified: no safety violation") {
		t.Fatalf("stdout missing verification verdict:\n%s", out.String())
	}
}
