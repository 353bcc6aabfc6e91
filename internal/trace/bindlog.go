package trace

import (
	"fmt"
	"io"
	"strings"
	"time"

	"botmeter/internal/sim"
)

// BIND query-log ingestion. Enterprises that cannot deploy a wire tap
// usually already have resolver query logs; BIND's `querylog` category is
// the de-facto format:
//
//	01-Jul-2026 12:00:01.123 client 10.0.0.1#53124 (evil.example): query: evil.example IN A +E(0)K (192.0.2.53)
//
// Older BIND 9 versions omit the parenthesised qname after the client
// field; both forms are accepted. The client host becomes the forwarding-
// server identity (at a border resolver, clients ARE the downstream
// forwarders). BIND logs carry no zone, so timestamps are read as UTC and
// converted to milliseconds since the first record's midnight, which lets
// the rest of the pipeline treat them as virtual time with epoch boundaries
// on calendar days.

// bindTimeLayout is BIND's default query-log timestamp layout.
const bindTimeLayout = "02-Jan-2006 15:04:05.000"

// ReadBINDLog parses a BIND query log into an observable dataset with the
// given malformed-line policy, on the same line loop as the JSON-lines
// readers.
func ReadBINDLog(r io.Reader, opt ReadOptions) (Observed, ReadResult, error) {
	var ref time.Time
	return readAll(r, opt, func(line []byte) (ObservedRecord, error) {
		rec, ts, err := parseBINDLine(string(line))
		if err != nil {
			return rec, err
		}
		if ref.IsZero() {
			ref = time.Date(ts.Year(), ts.Month(), ts.Day(), 0, 0, 0, 0, time.UTC)
		}
		rec.T = sim.FromDuration(ts.Sub(ref))
		return rec, nil
	})
}

// parseBINDLine extracts (server, domain, timestamp) from one query-log
// line.
func parseBINDLine(line string) (ObservedRecord, time.Time, error) {
	// Timestamp: first two space-separated fields.
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return ObservedRecord{}, time.Time{}, fmt.Errorf("too few fields")
	}
	ts, err := time.Parse(bindTimeLayout, fields[0]+" "+fields[1])
	if err != nil {
		return ObservedRecord{}, time.Time{}, fmt.Errorf("timestamp: %w", err)
	}
	// Locate "client <addr>#<port>".
	clientIdx := -1
	for i, f := range fields {
		if f == "client" && i+1 < len(fields) {
			clientIdx = i + 1
			break
		}
	}
	if clientIdx < 0 {
		return ObservedRecord{}, time.Time{}, fmt.Errorf("no client field")
	}
	addr := fields[clientIdx]
	if h := strings.IndexByte(addr, '#'); h >= 0 {
		addr = addr[:h]
	}
	if addr == "" {
		return ObservedRecord{}, time.Time{}, fmt.Errorf("empty client address")
	}
	// Locate "query:" then the qname.
	queryIdx := -1
	for i, f := range fields {
		if f == "query:" && i+1 < len(fields) {
			queryIdx = i + 1
			break
		}
	}
	if queryIdx < 0 {
		return ObservedRecord{}, time.Time{}, fmt.Errorf("no query field")
	}
	domain := strings.ToLower(strings.TrimSuffix(fields[queryIdx], "."))
	if domain == "" {
		return ObservedRecord{}, time.Time{}, fmt.Errorf("empty qname")
	}
	return ObservedRecord{Server: addr, Domain: domain}, ts, nil
}
