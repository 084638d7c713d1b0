package store

import (
	"bytes"
	"testing"
)

// FuzzEnvelope checks the checksummed envelope that guards every store
// entry — the runner's checkpoint journal and shared store alike. unseal
// must invert seal, and a sealed entry with one byte flipped, inserted or
// deleted, or cut short anywhere, must either fail verification or yield
// exactly the original payload: a changed payload never verifies.
//
// op selects the mutation (flip, truncate, insert, delete), pos where it
// lands, and b the flipped bits or the inserted byte.
func FuzzEnvelope(f *testing.F) {
	f.Add([]byte(`{"Perf":{"CyclesPerAccess":103.78}}`), uint(60), byte(1), byte(0))
	f.Add([]byte(`{"Perf":{"CyclesPerAccess":103.78}}`), uint(20), byte(0), byte(1))
	f.Add([]byte("x"), uint(16), byte('7'), byte(2))
	f.Add([]byte{}, uint(5), byte(0), byte(3))
	f.Add([]byte("line one\nline two\n"), uint(90), byte(0x20), byte(0))
	f.Fuzz(func(t *testing.T, payload []byte, pos uint, b, op byte) {
		sealed := seal(payload)
		got, err := unseal(sealed)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("unseal(seal(p)) = %q, %v; want %q", got, err, payload)
		}
		i := int(pos % uint(len(sealed)))
		var mutated []byte
		switch op % 4 {
		case 0: // flip bits in one byte
			if b == 0 {
				b = 1
			}
			mutated = bytes.Clone(sealed)
			mutated[i] ^= b
		case 1: // torn write: keep a prefix
			mutated = sealed[:i]
		case 2: // insert one byte
			mutated = append(append(bytes.Clone(sealed[:i]), b), sealed[i:]...)
		case 3: // delete one byte
			mutated = append(bytes.Clone(sealed[:i]), sealed[i+1:]...)
		}
		if got, err := unseal(mutated); err == nil && !bytes.Equal(got, payload) {
			t.Fatalf("mutated entry %q verified as %q, original payload %q", mutated, got, payload)
		}
	})
}
