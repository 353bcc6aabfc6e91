package matcher

import "testing"

func TestSetMatcher(t *testing.T) {
	m := NewSet("fam", []string{"Evil.COM", "bad.net."})
	tests := []struct {
		domain string
		want   bool
	}{
		{"evil.com", true},
		{"EVIL.com", true},
		{"evil.com.", true},
		{"bad.net", true},
		{"good.com", false},
		{"", false},
	}
	for _, tt := range tests {
		if got := m.Match(tt.domain); got != tt.want {
			t.Errorf("Match(%q) = %v, want %v", tt.domain, got, tt.want)
		}
	}
	if m.Name() != "fam" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestPatternMatcher(t *testing.T) {
	p, err := NewPattern("fam", "abcdef", 4, 8, []string{"com", "NET"})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		domain string
		want   bool
	}{
		{"abcd.com", true},
		{"abcdef.net", true},
		{"ABCD.COM", true},
		{"abc.com", false},       // too short
		{"abcdefabc.com", false}, // too long
		{"abcz.com", false},      // z outside charset
		{"abcd.org", false},      // TLD not allowed
		{"abcd", false},          // no TLD
		{".com", false},          // empty name
	}
	for _, tt := range tests {
		if got := p.Match(tt.domain); got != tt.want {
			t.Errorf("Match(%q) = %v, want %v", tt.domain, got, tt.want)
		}
	}
}

func TestPatternValidation(t *testing.T) {
	if _, err := NewPattern("x", "", 1, 2, nil); err == nil {
		t.Error("empty charset should fail")
	}
	if _, err := NewPattern("x", "ab", 0, 2, nil); err == nil {
		t.Error("zero min length should fail")
	}
	if _, err := NewPattern("x", "ab", 5, 2, nil); err == nil {
		t.Error("inverted range should fail")
	}
}

func TestPatternNoTLDRestriction(t *testing.T) {
	p, err := NewPattern("x", "ab", 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Match("abab.unusual") {
		t.Error("empty TLD list should accept any TLD")
	}
}
