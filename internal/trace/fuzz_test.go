package trace

import (
	"bytes"
	"os"
	"testing"
)

// FuzzTraceRead feeds arbitrary bytes to every capture reader: Read,
// Analyze and ShortTermFairness must return (possibly an error) and
// never panic, whatever the input claims.
func FuzzTraceRead(f *testing.F) {
	golden, err := os.ReadFile(goldenCapture)
	if err != nil {
		f.Fatal(err)
	}
	// The first dozen lines of a real capture: every record shape the
	// writer emits, short enough for the fuzzer to minimise quickly.
	lines := bytes.SplitAfterN(golden, []byte("\n"), 13)
	f.Add(bytes.Join(lines[:12], nil), 3)
	f.Add([]byte(""), 1)
	f.Add([]byte("{not json}\n"), 1)
	f.Add([]byte(`{"type":"Data","src":3}`+"\n"+`{"type":"Data","src":-1}`+"\n"), 1)
	f.Add([]byte(`{"type":"Data","src":65536,"bits":-5,"retry":255}`+"\n"), 1)
	f.Add([]byte(`{"t":-9,"type":"ACK","src":-1}`+"\n"+`{"t":5,"type":"Data","src":0}`), 0)
	f.Fuzz(func(t *testing.T, data []byte, window int) {
		_ = Read(bytes.NewReader(data), func(Record) error { return nil })
		if sum, err := Analyze(bytes.NewReader(data)); err == nil {
			_ = sum.String()
		}
		_, _, _ = ShortTermFairness(bytes.NewReader(data), window%4096)
	})
}
