package obs_test

import (
	"strings"
	"testing"

	"botmeter/internal/obs"
	"botmeter/internal/obs/obstest"
)

// TestValidateRegistryOutput round-trips a registry loaded with
// adversarial label values — backslashes, quotes, newlines, commas,
// braces — through WritePrometheus and the strict validator: whatever the
// exposition emits must parse.
func TestValidateRegistryOutput(t *testing.T) {
	r := obs.NewRegistry()
	r.Help("evil_counter", "counter with hostile labels")
	evil := []string{
		`back\slash`,
		`qu"ote`,
		"new\nline",
		`comma,brace}equals=`,
		`trailing\`,
		"",
	}
	for i, v := range evil {
		r.Counter("evil_counter", "v", v).Add(uint64(i + 1))
	}
	r.Gauge("plain_gauge", "shard", "3").Set(1.5)
	r.GaugeFunc("callback_gauge", func() float64 { return 42 }, "shard", "0")
	r.Histogram("lat_seconds", obs.LatencyBuckets, "path", `a"b\c`).Observe(0.003)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := obstest.ValidatePrometheusText(strings.NewReader(b.String())); err != nil {
		t.Fatalf("exposition failed validation: %v\n---\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "callback_gauge{shard=\"0\"} 42") {
		t.Fatalf("callback gauge missing from exposition:\n%s", b.String())
	}
}

// TestValidateRejectsMalformed feeds the validator hand-broken inputs;
// each must be rejected with a message naming the problem.
func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string // substring of the error
	}{
		{
			name:  "bad metric name",
			input: "9bad_name 1\n",
			want:  "invalid metric name",
		},
		{
			name:  "bad label name",
			input: `m{9l="v"} 1` + "\n",
			want:  "invalid label name",
		},
		{
			name:  "illegal escape",
			input: `m{l="a\tb"} 1` + "\n",
			want:  "illegal escape",
		},
		{
			name:  "dangling backslash",
			input: `m{l="a\` + "\n",
			want:  "dangling backslash",
		},
		{
			name:  "unterminated label block",
			input: `m{l="v"` + "\n",
			want:  "unterminated label block",
		},
		{
			name:  "unquoted label value",
			input: `m{l=v} 1` + "\n",
			want:  "not quoted",
		},
		{
			name:  "duplicate label",
			input: `m{l="a",l="b"} 1` + "\n",
			want:  "duplicate label",
		},
		{
			name:  "missing value",
			input: `m{l="v"}` + "\n",
			want:  "missing value",
		},
		{
			name:  "bad value",
			input: "m notanumber\n",
			want:  "bad value",
		},
		{
			name:  "bad timestamp",
			input: "m 1 soon\n",
			want:  "bad timestamp",
		},
		{
			name:  "duplicate series",
			input: `m{a="1",b="2"} 1` + "\n" + `m{b="2",a="1"} 2` + "\n",
			want:  "duplicate series",
		},
		{
			name:  "unknown TYPE",
			input: "# TYPE m speedometer\n",
			want:  "unknown TYPE",
		},
		{
			name:  "duplicate TYPE",
			input: "# TYPE m gauge\n# TYPE m gauge\n",
			want:  "duplicate TYPE",
		},
		{
			name:  "duplicate HELP",
			input: "# HELP m a\n# HELP m b\n",
			want:  "duplicate HELP",
		},
		{
			name:  "TYPE after samples",
			input: "m 1\n# TYPE m gauge\n",
			want:  "after its samples",
		},
		{
			name:  "bucket without le",
			input: "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
			want:  "missing le",
		},
		{
			name:  "non-cumulative buckets",
			input: "# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n",
			want:  "not cumulative",
		},
		{
			name:  "histogram without +Inf",
			input: "# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n",
			want:  "no le=\"+Inf\"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := obstest.ValidatePrometheusText(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("input accepted, want error containing %q:\n%s", tc.want, tc.input)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q missing %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsWellFormed covers legal shapes the strict checks
// must not reject.
func TestValidateAcceptsWellFormed(t *testing.T) {
	const input = `# HELP up whether the target is up
# TYPE up gauge
up 1
# TYPE lat histogram
lat_bucket{le="0.1"} 3
lat_bucket{le="+Inf"} 5
lat_sum 0.7
lat_count 5
# a free-form comment
special{v="+Inf"} +Inf
negative -2.5e-3
stamped 4 1700000000000
`
	if err := obstest.ValidatePrometheusText(strings.NewReader(input)); err != nil {
		t.Fatalf("well-formed input rejected: %v", err)
	}
}
