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
