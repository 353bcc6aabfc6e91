package trace

import (
	"context"
	"io"
	"time"
)

// ObservedFunc consumes one observed record during incremental reads. A
// non-nil error aborts the stream and is returned to the caller.
type ObservedFunc func(ObservedRecord) error

// StreamObserved incrementally parses a JSON-lines observable dataset,
// invoking fn for every well-formed record as soon as its line is read — the
// bounded-memory counterpart of ReadObserved, which materialises the whole
// slice. Combined with a TailReader this turns a live vantage capture into
// an online record source for the streaming landscape engine.
func StreamObserved(r io.Reader, opt ReadOptions, fn ObservedFunc) (ReadResult, error) {
	return readLines(r, opt, parseObservedLine, fn)
}

// TailReader adapts a growing file to io.Reader semantics suitable for the
// incremental parsers above: a read that hits EOF blocks, polling for new
// data, until the context is cancelled — at which point EOF is finally
// surfaced and the parser terminates cleanly on whatever was read. This is
// `tail -f` as a composable reader: the line framing above it guarantees a
// torn final line (appender crashed mid-record) is only ever seen at
// shutdown, where lenient mode skips and counts it.
type TailReader struct {
	ctx  context.Context
	r    io.Reader
	poll time.Duration
}

// NewTailReader wraps r. poll <= 0 defaults to 200ms.
func NewTailReader(ctx context.Context, r io.Reader, poll time.Duration) *TailReader {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &TailReader{ctx: ctx, r: r, poll: poll}
}

// Read implements io.Reader with EOF-as-wait semantics.
func (t *TailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.r.Read(p)
		if n > 0 || err == nil {
			// Pass data (and a possible io.EOF alongside it) through; the
			// EOF will be re-seen on the next call with n == 0.
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
		if err != io.EOF {
			return 0, err
		}
		select {
		case <-t.ctx.Done():
			return 0, io.EOF
		case <-time.After(t.poll):
		}
	}
}
