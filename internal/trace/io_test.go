package trace

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestOverlongLine: a line past maxLineBytes — here the run of NUL bytes a
// crash can leave in a copied capture — is one malformed line like any
// other, on both readers of the shared line loop. Lenient mode skips it,
// counts it and reads on; strict mode names its line number.
func TestOverlongLine(t *testing.T) {
	long := strings.Repeat("\x00", 2<<20)
	readers := []struct {
		name string
		good [2]string // lines that parse to a.com, then b.com
		read func(io.Reader, ReadOptions) (Observed, ReadResult, error)
	}{
		{"jsonl", [2]string{
			`{"t":1,"server":"s","domain":"a.com"}`,
			`{"t":2,"server":"s","domain":"b.com"}`,
		}, ReadObserved},
		{"bind", [2]string{
			"01-Jul-2026 00:00:01.500 client 10.0.0.1#1: query: a.com IN A +",
			"01-Jul-2026 00:00:02.500 client 10.0.0.1#1: query: b.com IN A +",
		}, ReadBINDLog},
	}
	placements := []struct {
		name  string
		input func(good [2]string) string
		line  int
	}{
		{"first", func(g [2]string) string { return long + "\n" + g[0] + "\n" + g[1] + "\n" }, 1},
		{"middle", func(g [2]string) string { return g[0] + "\n" + long + "\n" + g[1] + "\n" }, 2},
		{"last without newline", func(g [2]string) string { return g[0] + "\n" + g[1] + "\n" + long }, 3},
	}
	for _, rd := range readers {
		for _, p := range placements {
			in := p.input(rd.good)
			obs, res, err := rd.read(strings.NewReader(in), ReadOptions{Lenient: true})
			if err != nil || res.Records != 2 || res.Skipped != 1 ||
				len(obs) != 2 || obs[0].Domain != "a.com" || obs[1].Domain != "b.com" {
				t.Errorf("%s/%s lenient: %d records, %+v, %v; want a.com and b.com, one skip", rd.name, p.name, len(obs), res, err)
			}
			_, _, err = rd.read(strings.NewReader(in), ReadOptions{})
			if want := fmt.Sprintf("line %d: longer than", p.line); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s/%s strict: %v, want an error with %q", rd.name, p.name, err, want)
			}
		}
	}
}

// TestLongLineWithinBound: a line longer than the reader's buffer but within
// maxLineBytes, newline included, is read whole; one byte more is not.
func TestLongLineWithinBound(t *testing.T) {
	line := func(size int) string {
		const head, tail = `{"t":1,"server":"s","domain":"a.com"`, "}\n"
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}
	for _, tc := range []struct {
		size    int
		records int
	}{
		{64*1024 + 1, 1},
		{maxLineBytes, 1},
		{maxLineBytes + 1, 0},
	} {
		in := line(tc.size) + `{"t":2,"server":"s","domain":"b.com"}` + "\n"
		obs, res, err := ReadObserved(strings.NewReader(in), ReadOptions{Lenient: true})
		if err != nil || res.Records != tc.records+1 || res.Skipped != 1-tc.records || obs[len(obs)-1].Domain != "b.com" {
			t.Errorf("%d-byte line: %+v, %v; want %d record(s) before b.com", tc.size, res, err, tc.records)
		}
	}
}
