package scenario

import (
	"fmt"
	"testing"

	"cellpilot/internal/sim"
)

// The scenario library is the kernel's broadest regression surface: nine
// files spanning every workload kind, fault plan and assertion the DSL
// can express. This suite runs the whole fleet sequentially and under the
// sharded parallel driver and demands bit-for-bit identical fingerprints.
// Quick mode is fine here: both arms run the same shape, so equivalence
// (unlike golden comparison) holds.

// fleetFingerprints runs every library scenario once (no determinism
// re-runs — the comparison across arms is the determinism check) and
// returns file -> fingerprint.
func fleetFingerprints(files []string) (map[string]string, error) {
	out := make(map[string]string, len(files))
	for _, f := range files {
		s, err := Load(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		o, err := runOnce(s, Options{Quick: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[f] = o.Fingerprint
	}
	return out, nil
}

// TestScenarioFleetShardedEquivalence: the whole library executed as
// logical processes of one parallel sharded fleet (4 workers contending
// on however many cores the host has) must reproduce the sequential
// fingerprints exactly.
func TestScenarioFleetShardedEquivalence(t *testing.T) {
	files, err := ListFiles("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := fleetFingerprints(files)
	if err != nil {
		t.Fatal(err)
	}
	par := make([]string, len(files))
	sh := sim.NewSharded(4)
	for i, f := range files {
		i, f := i, f
		sh.AddLP(f, func(lp *sim.LP) error {
			s, err := Load(f)
			if err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			o, err := runOnce(s, Options{Quick: true})
			if err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			par[i] = o.Fingerprint
			return nil
		})
	}
	if err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		if par[i] != seq[f] {
			t.Errorf("%s: sharded run diverges from sequential:\n%s", f, firstDiff(seq[f], par[i]))
		}
	}
}
