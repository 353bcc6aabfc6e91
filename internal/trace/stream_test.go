package trace

import (
	"errors"
	"strings"
	"testing"
)

func TestStreamObservedJSONL(t *testing.T) {
	in := `{"t":100,"server":"s1","domain":"a.com"}
{"t":200,"server":"s2","domain":"b.com"}
`
	var got []ObservedRecord
	res, err := StreamObserved(strings.NewReader(in), ReadOptions{}, func(rec ObservedRecord) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 || res.Skipped != 0 {
		t.Errorf("result = %+v", res)
	}
	if len(got) != 2 || got[0].Domain != "a.com" || got[1].T != 200 || got[1].Server != "s2" {
		t.Errorf("records = %+v", got)
	}
}

func TestStreamObservedJSONLRejects(t *testing.T) {
	cases := map[string]string{
		"torn line": `{"t":100,"server":"s1","domain":"a.com"}` + "\n" + `{"t":2`,
		"no domain": `{"t":100,"server":"s1"}` + "\n",
	}
	for name, in := range cases {
		if _, err := StreamObserved(strings.NewReader(in), ReadOptions{}, func(ObservedRecord) error {
			return nil
		}); err == nil {
			t.Errorf("%s: strict mode should fail", name)
		}
		// Lenient mode skips and counts instead.
		res, err := StreamObserved(strings.NewReader(in), ReadOptions{Lenient: true}, func(ObservedRecord) error {
			return nil
		})
		if err != nil || res.Skipped != 1 {
			t.Errorf("%s: lenient result = %+v, %v", name, res, err)
		}
	}
}

// TestStreamObservedCallbackErrorAborts: an error from the callback is the
// caller's, not a malformed line, so it aborts the read in lenient mode too.
func TestStreamObservedCallbackErrorAborts(t *testing.T) {
	in := `{"t":100,"server":"s1","domain":"a.com"}` + "\n" + `{"t":200,"server":"s2","domain":"b.com"}` + "\n"
	boom := errors.New("stop here")
	for _, opt := range []ReadOptions{{}, {Lenient: true}} {
		calls := 0
		res, err := StreamObserved(strings.NewReader(in), opt, func(ObservedRecord) error {
			calls++
			return boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("%+v: err = %v, want the callback error", opt, err)
		}
		if calls != 1 || res.Records != 0 || res.Skipped != 0 {
			t.Errorf("%+v: callback ran %d times, result %+v, after aborting", opt, calls, res)
		}
	}
}
