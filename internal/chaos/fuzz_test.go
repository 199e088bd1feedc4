package chaos

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenario feeds arbitrary bytes through the scenario decoder, the
// sanitizer and the full executor + oracle. The committed corpus seeds
// it. Any input that decodes is clamped into an executable scenario;
// from there, every harness invariant must hold — a crash, hang or
// oracle violation is a real finding, and `asichaos -replay` on the
// sanitized scenario (printed by `go test -run Fuzz.../<id> -v`)
// reproduces it outside the fuzzer.
func FuzzScenario(f *testing.F) {
	files, err := os.ReadDir(filepath.Join("testdata", "corpus"))
	if err != nil {
		f.Fatal(err)
	}
	for _, fe := range files {
		b, err := os.ReadFile(filepath.Join("testdata", "corpus", fe.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A parseable name for a ~10^13-switch fat-tree: Sanitize must fall
	// back to a random topology rather than build it.
	f.Add([]byte(`{"seed":1,"topology":{"catalogue":"8-port 20-tree"},"algorithm":"parallel"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, err := DecodeJSON(data)
		if err != nil {
			t.Skip() // not a scenario; nothing to check
		}
		sc := Sanitize(raw)
		if err := sc.Validate(); err != nil {
			t.Fatalf("Sanitize produced an invalid scenario: %v\n%s", err, sc.EncodeJSON())
		}
		rep, err := Execute(sc, Options{Telemetry: true})
		if err != nil {
			t.Fatalf("sanitized scenario failed to execute: %v\n%s", err, sc.EncodeJSON())
		}
		if err := (Oracle{}).Check(rep); err != nil {
			min := Shrink(sc, func(c Scenario) bool {
				r, e := Execute(c, Options{Telemetry: true})
				return e == nil && (Oracle{}).Check(r) != nil
			})
			t.Fatalf("oracle violation: %v\nminimal reproducer:\n%s", err, min.EncodeJSON())
		}
	})
}

// FuzzGenerated fuzzes the generator itself: every (seed, profile
// index) pair must yield a valid scenario whose execution satisfies the
// oracle. This hunts for generator/executor disagreements the byte-level
// fuzzer is unlikely to reach (catalogue fabrics, clustered churn).
func FuzzGenerated(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(42), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, pidx uint8) {
		profiles := Profiles()
		p := profiles[int(pidx)%len(profiles)]
		sc := Generate(seed, p)
		if err := sc.Validate(); err != nil {
			t.Fatalf("Generate(%d, %s) invalid: %v", seed, p.Name, err)
		}
		rep, err := Execute(sc, Options{Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := (Oracle{}).Check(rep); err != nil {
			t.Fatalf("oracle violation on %s:\n%v\n%s", sc.Name, err, sc.EncodeJSON())
		}
	})
}
