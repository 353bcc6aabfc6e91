package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ReadOptions selects how readers treat malformed input. The zero value is
// strict: the first malformed line aborts the read with a positional error,
// the safe default for curated experiment artifacts. Lenient mode is for
// operational data — live captures with torn final lines after a crash,
// log rotation glue, or the odd corrupt record — where losing one line must
// not poison the other millions.
type ReadOptions struct {
	// Lenient skips malformed lines instead of failing, counting them in
	// ReadResult.Skipped.
	Lenient bool
}

// ReadResult reports what a reader consumed.
type ReadResult struct {
	// Records is the number of well-formed records returned.
	Records int
	// Skipped is the number of malformed lines dropped (always 0 in
	// strict mode, which errors instead).
	Skipped int
}

// maxLineBytes bounds a single input line, its newline included, and so the
// memory one line of outside input can claim. DNS names are ≤255 bytes, so
// even generous framing stays far below it.
const maxLineBytes = 1 << 20

// errLineTooLong marks a line past maxLineBytes: malformed like any other.
var errLineTooLong = fmt.Errorf("longer than %d bytes", maxLineBytes)

// WriteObservedJSONL serialises the dataset as JSON lines.
func WriteObservedJSONL(w io.Writer, recs Observed) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace: encode: %w", err)
		}
	}
	return bw.Flush()
}

// WriteRawJSONL serialises the raw dataset as JSON lines.
func WriteRawJSONL(w io.Writer, recs Raw) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace: encode: %w", err)
		}
	}
	return bw.Flush()
}

// ReadObserved parses a JSON-lines observable dataset with the given
// malformed-line policy. It is the materialising form of StreamObserved.
func ReadObserved(r io.Reader, opt ReadOptions) (Observed, ReadResult, error) {
	return readAll(r, opt, parseObservedLine)
}

// parseObservedLine decodes one JSON-lines record. A record without a domain
// is malformed too, since truncation can leave syntactically valid but
// incomplete JSON.
func parseObservedLine(line []byte) (ObservedRecord, error) {
	var rec ObservedRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	if rec.Domain == "" {
		return rec, errors.New("record has no domain")
	}
	return rec, nil
}

// lineParser turns one non-blank input line, newline included, into a
// record; an error marks the line malformed. The line is only valid during
// the call.
type lineParser func(line []byte) (ObservedRecord, error)

// readAll collects every record readLines delivers.
func readAll(r io.Reader, opt ReadOptions, parse lineParser) (Observed, ReadResult, error) {
	var out Observed
	res, err := readLines(r, opt, parse, func(rec ObservedRecord) error {
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, res, err
	}
	return out, res, nil
}

// readLines is the line loop of every trace reader. It reads line by line
// (so lenient mode can resynchronise after garbage, which json.Decoder
// cannot), applies the strict/lenient policy to lines parse rejects and to
// lines past maxLineBytes, and hands each record to fn. Blank lines are
// ignored without counting. An error from fn aborts the read in either mode.
func readLines(r io.Reader, opt ReadOptions, parse lineParser, fn ObservedFunc) (ReadResult, error) {
	var res ReadResult
	br := bufio.NewReaderSize(r, 64*1024)
	for n := 1; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			line, err = readLong(br, line)
		}
		var rec ObservedRecord
		switch {
		case err == io.EOF && len(line) == 0:
			return res, nil
		case err == errLineTooLong:
			// malformed: the policy below applies
		case err != nil && err != io.EOF:
			return res, fmt.Errorf("trace: read: %w", err)
		case len(bytes.TrimSpace(line)) == 0:
			continue
		default:
			rec, err = parse(line)
		}
		if err != nil {
			if !opt.Lenient {
				return res, fmt.Errorf("trace: line %d: %w", n, err)
			}
			res.Skipped++
			continue
		}
		if err := fn(rec); err != nil {
			return res, err
		}
		res.Records++
	}
}

// readLong finishes a line that overflowed br's buffer, head being its first
// bufferful. A line past maxLineBytes is consumed up to its newline but not
// kept, so the next line starts clean; it reads as errLineTooLong.
func readLong(br *bufio.Reader, head []byte) ([]byte, error) {
	line := append([]byte(nil), head...)
	for {
		frag, err := br.ReadSlice('\n')
		if line != nil && len(line)+len(frag) <= maxLineBytes {
			line = append(line, frag...)
		} else {
			line = nil
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if line == nil && (err == nil || err == io.EOF) {
			return nil, errLineTooLong
		}
		return line, err
	}
}
