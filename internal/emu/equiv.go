package emu

import (
	"bytes"
	"fmt"

	"opgate/internal/prog"
)

// RunResult captures the observable outcome of a program execution.
type RunResult struct {
	Output []byte
	Dyn    int64
	Mem    []byte
}

// Execute runs a fresh machine over p and returns its observable result.
func Execute(p *prog.Program) (*RunResult, error) {
	m := New(p)
	if err := m.Run(); err != nil {
		return nil, err
	}
	return &RunResult{
		Output: append([]byte(nil), m.Output...),
		Dyn:    m.Dyn,
		Mem:    m.Mem,
	}, nil
}

// CheckEquivalence runs both programs and verifies that their observable
// behaviour matches: identical output streams and identical final data
// memory. VRP re-encodes opcodes and VRS clones guarded regions, so both
// must be perfectly behaviour-preserving (§2: "VRP is always done in a
// conservative manner ... ensuring the correctness of results").
func CheckEquivalence(original, transformed *prog.Program) error {
	r1, err := Execute(original)
	if err != nil {
		return fmt.Errorf("original program failed: %w", err)
	}
	r2, err := Execute(transformed)
	if err != nil {
		return fmt.Errorf("transformed program failed: %w", err)
	}
	if !bytes.Equal(r1.Output, r2.Output) {
		return fmt.Errorf("output mismatch: original %d bytes, transformed %d bytes (first diff at %d)",
			len(r1.Output), len(r2.Output), firstDiff(r1.Output, r2.Output))
	}
	if len(r1.Mem) != len(r2.Mem) || !bytes.Equal(r1.Mem, r2.Mem) {
		return fmt.Errorf("final memory mismatch at offset %d", firstDiff(r1.Mem, r2.Mem))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
