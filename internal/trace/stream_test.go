package trace

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
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

// growingReader yields its chunks one Read at a time, then returns EOF
// forever — a file that stopped growing.
type growingReader struct {
	chunks []string
}

func (g *growingReader) Read(p []byte) (int, error) {
	if len(g.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, g.chunks[0])
	g.chunks[0] = g.chunks[0][n:]
	if g.chunks[0] == "" {
		g.chunks = g.chunks[1:]
	}
	return n, nil
}

func TestTailReaderPassesDataThrough(t *testing.T) {
	tr := NewTailReader(context.Background(), strings.NewReader("hello"), time.Millisecond)
	buf := make([]byte, 16)
	n, err := tr.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
}

func TestTailReaderWaitsAtEOFUntilCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := NewTailReader(ctx, &growingReader{chunks: []string{"a"}}, time.Millisecond)
	buf := make([]byte, 4)
	if n, err := tr.Read(buf); err != nil || string(buf[:n]) != "a" {
		t.Fatalf("first read = %q, %v", buf[:n], err)
	}
	// The next read hits EOF and must block until the context ends, then
	// surface EOF so the parser above terminates cleanly.
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	n, err := tr.Read(buf)
	if n != 0 || err != io.EOF {
		t.Errorf("post-cancel read = %d, %v, want 0, EOF", n, err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("read returned before cancellation")
	}
}

// failingReader returns a non-EOF error, which must pass through untouched
// (only EOF means "wait for more").
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("disk gone") }

func TestTailReaderPropagatesRealErrors(t *testing.T) {
	tr := NewTailReader(nil, failingReader{}, 0) // nil ctx + 0 poll take the defaults
	if _, err := tr.Read(make([]byte, 4)); err == nil || err == io.EOF {
		t.Errorf("err = %v, want the underlying error", err)
	}
}
