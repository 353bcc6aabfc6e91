// Package matcher implements BotMeter's DGA-domain matching stage (paper
// Figure 2, steps 2–4). Attribution is the matcher the pipeline runs: one
// per epoch, it resolves a lookup to its pool position. Set and IDMatcher
// are the bare membership kernels the repository benchmark times beside it.
package matcher

import "strings"

// Set matches against an exact domain list — the "plain list" input mode.
type Set struct {
	name    string
	domains map[string]struct{}
}

// NewSet builds an exact matcher over the given domains.
func NewSet(name string, domains []string) *Set {
	m := &Set{name: name, domains: make(map[string]struct{}, len(domains))}
	for _, d := range domains {
		m.domains[normalize(d)] = struct{}{}
	}
	return m
}

// Match reports whether the domain is in the set.
func (m *Set) Match(domain string) bool {
	_, ok := m.domains[normalize(domain)]
	return ok
}

// Name identifies the matcher for reports.
func (m *Set) Name() string { return m.name }

// normalize canonicalises a domain: strips one trailing dot and lowers
// ASCII letters. The single scan up front returns already-canonical
// domains (the overwhelmingly common case on the hot Match path — the
// simulator emits lowercase, dot-free names) unchanged without
// allocating; only domains that actually need rewriting pay for a copy.
func normalize(d string) string {
	canonical := true
	for i := 0; i < len(d); i++ {
		c := d[i]
		if ('A' <= c && c <= 'Z') || c >= 0x80 || (c == '.' && i == len(d)-1) {
			// Uppercase ASCII, any non-ASCII byte (Unicode case folding
			// may apply) or a trailing dot: fall through to the slow path.
			canonical = false
			break
		}
	}
	if canonical {
		return d
	}
	d = strings.TrimSuffix(d, ".")
	return strings.ToLower(d)
}
