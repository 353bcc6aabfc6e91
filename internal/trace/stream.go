package trace

import "io"

// ObservedFunc consumes one observed record during incremental reads. A
// non-nil error aborts the stream and is returned to the caller.
type ObservedFunc func(ObservedRecord) error

// StreamObserved incrementally parses a JSON-lines observable dataset,
// invoking fn for every well-formed record as soon as its line is read — the
// bounded-memory counterpart of ReadObserved, which materialises the whole
// slice. Combined with a TailFile this turns a live vantage capture into
// an online record source for the streaming landscape engine.
func StreamObserved(r io.Reader, opt ReadOptions, fn ObservedFunc) (ReadResult, error) {
	return readLines(r, opt, parseObservedLine, fn)
}
