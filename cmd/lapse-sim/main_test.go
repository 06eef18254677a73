package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestArgs pins the command line: the flags, then exactly one experiment.
// Anything else prints the usage and exits 2 without running an experiment —
// in particular a flag after the experiment, which the flag package would
// otherwise leave unparsed.
func TestArgs(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		out  string // in stdout on success, in stderr otherwise
	}{
		{[]string{"table3"}, 0, "Home node (with location caches)"},
		{[]string{"-short", "table3"}, 0, "Home node (with location caches)"},
		{[]string{"fig8", "-short"}, 2, "usage: lapse-sim [-short] <experiment>"},
		{[]string{"-short", "table3", "table4"}, 2, "usage:"},
		{[]string{"-short"}, 2, "usage:"},
		{nil, 2, "usage:"},
		{[]string{"fig10"}, 2, `unknown experiment "fig10"`},
		{[]string{"-long", "table3"}, 2, "usage:"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		out := stderr.String()
		if c.code == 0 {
			out = stdout.String()
		}
		if code != c.code || !strings.Contains(out, c.out) {
			t.Errorf("lapse-sim %q: exit %d, want %d with %q in\n%s", c.args, code, c.code, c.out, out)
		}
		if c.code != 0 && stdout.Len() > 0 {
			t.Errorf("lapse-sim %q ran an experiment:\n%s", c.args, stdout.String())
		}
	}
}
