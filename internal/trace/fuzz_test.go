package trace

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"botmeter/internal/sim"
)

// FuzzReadObserved hardens the JSON-lines reader and pins its writers to
// each other: whatever the strict reader accepts re-encodes to the same bytes
// through WriteObservedJSONL and SafeWriter.AppendObserved, and those bytes
// read back to the same records. The lenient reader never fails on input
// that reads without an I/O error.
func FuzzReadObserved(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteObservedJSONL(&buf, Observed{{T: 1, Server: "s", Domain: "d.com"}})
	f.Add(buf.String())
	f.Add("")
	f.Add(`{"t":2,"server":"s"}` + "\n" + "garbage\n" + `{"t":3,"server":"s","domain":"e.com"`)
	f.Add(`{"t":5,"server":"a<b","domain":"x&y.com","Extra":1}` + "\r\n\n" + `{"domain":"é.com","t":-7}`)
	f.Fuzz(func(t *testing.T, data string) {
		if _, _, err := ReadObserved(strings.NewReader(data), ReadOptions{Lenient: true}); err != nil {
			t.Fatalf("lenient read failed: %v", err)
		}
		recs, _, err := ReadObserved(strings.NewReader(data), ReadOptions{})
		if err != nil {
			return
		}
		var batch, live bytes.Buffer
		if err := WriteObservedJSONL(&batch, recs); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		sw := NewSafeWriter(&live, SafeWriterConfig{FlushInterval: -1, FlushEvery: -1})
		for _, r := range recs {
			if err := sw.AppendObserved(r.T, r.Server, r.Domain); err != nil {
				t.Fatalf("append failed: %v", err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch.Bytes(), live.Bytes()) {
			t.Fatalf("writers disagree:\nbatch %q\nlive  %q", batch.Bytes(), live.Bytes())
		}
		back, _, err := ReadObserved(&batch, ReadOptions{})
		if err != nil || !slices.Equal(back, recs) {
			t.Fatalf("re-read = %+v, %v; want %+v", back, err, recs)
		}
	})
}

// FuzzSortMatchesStableSort feeds arbitrary timestamps, several records to
// a timestamp, through Observed.Sort and the stable comparison sort. Each
// 8-byte word is one timestamp: its low byte picks how many records share
// it and its high byte how far it is shifted down, so narrow spans full of
// ties are as reachable as spans past a packed key's reach.
func FuzzSortMatchesStableSort(f *testing.F) {
	f.Add([]byte{3, 1, 2, 1, 0, 9, 9, 0})
	f.Add(append(bytes.Repeat([]byte{0xff}, 7), 0x40, 0, 0, 0, 0, 0, 0, 0, 0x80))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ts []sim.Time
		for len(data) > 0 {
			var word [8]byte
			data = data[copy(word[:], data):]
			v := sim.Time(binary.LittleEndian.Uint64(word[:])) >> (word[7] % 64)
			for k := 0; k <= int(word[0]%3); k++ {
				ts = append(ts, v)
			}
		}
		o, want := tagObserved(ts), tagObserved(ts)
		o.Sort()
		stableObserved(want)
		if i := firstDiff(o, want); i >= 0 {
			t.Fatalf("record %d = %+v, want %+v", i, o[i], want[i])
		}
	})
}

// FuzzReadBINDLog hardens the query-log parser: arbitrary text must never
// panic or fail a lenient read, and every accepted record must carry a
// server and a domain.
func FuzzReadBINDLog(f *testing.F) {
	f.Add("01-Jul-2026 00:00:01.500 client 10.0.0.1#53124: query: a.com IN A +\n")
	f.Add("garbage\n\n\x00")
	f.Fuzz(func(t *testing.T, data string) {
		recs, _, err := ReadBINDLog(strings.NewReader(data), ReadOptions{Lenient: true})
		if err != nil {
			t.Fatalf("lenient read failed: %v", err)
		}
		for _, r := range recs {
			if r.Server == "" || r.Domain == "" {
				t.Fatalf("accepted empty fields: %+v", r)
			}
		}
	})
}
