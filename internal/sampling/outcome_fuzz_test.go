package sampling

import (
	"bytes"
	"testing"
)

// FuzzDecodeOutcome fuzzes the outcome decoder, which reads payloads
// from the disk artifact store and from shard peers: any input must be
// rejected or decode to an outcome whose encoding is exactly the input.
// The seeds are a valid encoding for each of the four flag combinations,
// then one byte short, one byte long, and the flag bytes 4 and 255.
func FuzzDecodeOutcome(f *testing.F) {
	var valid [][]byte
	for flags := 0; flags < 4; flags++ {
		valid = append(valid, EncodeOutcome(KernelOutcome{
			ProjCycles:    123456789,
			SimWarpInstrs: -42,
			ThreadInstrs:  3.5e9,
			DRAMUtil:      0.625,
			Capped:        flags&1 != 0,
			Truncated:     flags&2 != 0,
		}))
	}
	for _, s := range valid {
		f.Add(s)
	}
	f.Add(valid[0][:outcomeSize-1])
	f.Add(append(append([]byte(nil), valid[0]...), 0))
	for _, flags := range []byte{4, 255} {
		s := append([]byte(nil), valid[3]...)
		s[32] = flags
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		oc, err := DecodeOutcome(data)
		if err != nil {
			return
		}
		if len(data) != outcomeSize {
			t.Fatalf("accepted a %d-byte payload", len(data))
		}
		if enc := EncodeOutcome(oc); !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, data)
		}
	})
}
