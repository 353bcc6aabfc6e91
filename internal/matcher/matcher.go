// Package matcher implements BotMeter's DGA-domain matching stage (paper
// Figure 2, steps 2–4). Attribution is the matcher the pipeline runs: one
// per epoch, it resolves a lookup to its pool position. Set and IDMatcher
// are the bare membership kernels the repository benchmark times beside it;
// Pattern is the structural (charset/length/TLD) input mode.
package matcher

import (
	"fmt"
	"strings"
)

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

// Pattern matches on the structural profile of a DGA's output: permitted
// characters, name-length range and TLDs — the "algorithmic pattern" input
// mode. It trades exactness for zero per-domain state.
type Pattern struct {
	name    string
	charset map[byte]struct{}
	minLen  int
	maxLen  int
	tlds    map[string]struct{}
}

// NewPattern builds a structural matcher.
func NewPattern(name, charset string, minLen, maxLen int, tlds []string) (*Pattern, error) {
	if charset == "" {
		return nil, fmt.Errorf("matcher: empty charset")
	}
	if minLen <= 0 || maxLen < minLen {
		return nil, fmt.Errorf("matcher: bad length range [%d, %d]", minLen, maxLen)
	}
	p := &Pattern{
		name:    name,
		charset: make(map[byte]struct{}, len(charset)),
		minLen:  minLen,
		maxLen:  maxLen,
		tlds:    make(map[string]struct{}, len(tlds)),
	}
	for i := 0; i < len(charset); i++ {
		p.charset[charset[i]] = struct{}{}
	}
	for _, t := range tlds {
		p.tlds[normalize(t)] = struct{}{}
	}
	return p, nil
}

// Match reports whether the domain fits the profile.
func (p *Pattern) Match(domain string) bool {
	domain = normalize(domain)
	dot := strings.LastIndexByte(domain, '.')
	if dot <= 0 {
		return false
	}
	name, tld := domain[:dot], domain[dot+1:]
	if len(p.tlds) > 0 {
		if _, ok := p.tlds[tld]; !ok {
			return false
		}
	}
	if len(name) < p.minLen || len(name) > p.maxLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		if _, ok := p.charset[name[i]]; !ok {
			return false
		}
	}
	return true
}

// Name identifies the matcher for reports.
func (p *Pattern) Name() string { return p.name }

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
