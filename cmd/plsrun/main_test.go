package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRefusesFlagsOutsideTheirWorld runs the built binary: two world-size
// flags, and each flag that applies to one kind of world only given to
// another, must stop the run with exit status 2 before it trains, instead of
// being silently ignored.
func TestRefusesFlagsOutsideTheirWorld(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "plsrun")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-launch", "2", "-world", "4"}, "-launch and -world each size the world"},
		{[]string{"-launch", "2", "-workers", "4"}, "-workers and -launch each size the world"},
		{[]string{"-wire-compress"}, "-wire-compress applies to multi-process worlds only"},
		{[]string{"-workers", "2", "-on-peer-fail", "degrade"}, "-on-peer-fail applies to multi-process worlds only"},
		{[]string{"-max-world", "4"}, "-max-world applies to multi-process worlds only"},
		{[]string{"-join"}, "-join applies to one rank of a multi-process world only"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, bin, tc.args...).CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("plsrun %s: err = %v, want exit status 2\n%s", strings.Join(tc.args, " "), err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("plsrun %s: output %q does not say %q", strings.Join(tc.args, " "), out, tc.want)
		}
	}
}
