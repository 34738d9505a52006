package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set in the environment, makes the test binary run the
// command's main with the arguments that follow the "--" in os.Args.
const runMainEnv = "CELLPILOT_TRACE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"cellpilot-trace"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenOutput runs the command in a child process and compares its
// stdout byte for byte with the checked-in testdata: the human-readable
// views, and the JSON-lines and metrics exports written to stdout. The
// simulation is deterministic, so any difference is a change in what a
// traced run records or how it is rendered.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"views.golden", []string{"-rounds", "3", "-top", "-critpath", "-timeline", "-flows"}},
		{"exports.golden", []string{"-rounds", "3", "-json", "-", "-metrics", "-"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, tc.args...)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("cellpilot-trace %s: %v\n%s", strings.Join(tc.args, " "), err, stderr.String())
			}
			want, err := os.ReadFile("testdata/" + tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("output differs from testdata/%s at line %d:\n got: %q\nwant: %q", tc.golden, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("output differs from testdata/%s in length: %d lines, want %d", tc.golden, len(gl), len(wl))
			}
		})
	}
}
