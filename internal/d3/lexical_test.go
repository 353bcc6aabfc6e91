package d3

import (
	"fmt"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/sim"
)

// benignCorpus builds pronounceable, English-like names — the vocabulary a
// benign zone is drawn from.
func benignCorpus(n int) []string {
	syllables := []string{
		"ad", "ana", "ber", "cloud", "con", "cor", "data", "dev", "doc",
		"ed", "fast", "file", "go", "home", "info", "lab", "line", "mail",
		"map", "media", "net", "news", "on", "page", "photo", "play",
		"port", "pro", "search", "secure", "server", "shop", "site",
		"smart", "soft", "store", "stream", "tech", "test", "time",
		"top", "track", "video", "view", "web", "wiki", "work", "world",
	}
	rng := sim.NewRNG(12345)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		parts := 2 + rng.IntN(2)
		name := ""
		for p := 0; p < parts; p++ {
			name += syllables[rng.IntN(len(syllables))]
		}
		out = append(out, name+".com")
	}
	return out
}

func TestTrainLexicalValidation(t *testing.T) {
	if _, err := TrainLexical(nil, 0.01); err == nil {
		t.Error("empty corpus should fail")
	}
	if _, err := TrainLexical([]string{"a.com"}, 0); err == nil {
		t.Error("zero budget should fail")
	}
	if _, err := TrainLexical([]string{"a.com"}, 1); err == nil {
		t.Error("unit budget should fail")
	}
}

func TestLexicalSeparatesDGAFromBenign(t *testing.T) {
	benign := benignCorpus(3000)
	clf, err := TrainLexical(benign, 0.02)
	if err != nil {
		t.Fatal(err)
	}

	// Held-out benign names: false-positive rate should stay near budget.
	heldOut := benignCorpus(1000)[500:]
	fp := 0
	for _, d := range heldOut {
		if clf.IsDGA(d) {
			fp++
		}
	}
	if rate := float64(fp) / float64(len(heldOut)); rate > 0.10 {
		t.Errorf("benign false-positive rate %v too high", rate)
	}

	// Random DGA output: detection rate should be high.
	pool := dga.ConfickerC().Pool.PoolFor(9, 0)
	detected := clf.DetectList(pool.Domains[:2000])
	if rate := float64(len(detected)) / 2000; rate < 0.6 {
		t.Errorf("DGA detection rate %v too low", rate)
	}
}

func TestLexicalScoreOrdering(t *testing.T) {
	clf, err := TrainLexical(benignCorpus(2000), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// A vocabulary-like name should outscore uniform-random gibberish.
	if clf.Score("webmailserver.com") <= clf.Score("xq7zk9vjw2hq.com") {
		t.Errorf("score ordering broken: benign %v vs gibberish %v",
			clf.Score("webmailserver.com"), clf.Score("xq7zk9vjw2hq.com"))
	}
}

func TestLexicalHandlesOddInput(t *testing.T) {
	clf, err := TrainLexical(benignCorpus(500), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"", ".", "UPPER.CASE.COM", "with-dash.net", "ünïcode.com", "no-tld"} {
		// Must not panic, must return a finite score.
		s := clf.Score(d)
		if s != s { // NaN check
			t.Errorf("NaN score for %q", d)
		}
		_ = clf.IsDGA(d)
	}
}

func TestLexicalFeedsMatcherPipeline(t *testing.T) {
	// End-to-end detector use: classify a mixed stream, keep DGA-looking
	// names, and verify most of the kept set is genuinely DGA.
	clf, err := TrainLexical(benignCorpus(2000), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	pool := dga.NewGoZ().Pool.PoolFor(4, 0)
	mixed := make([]string, 0, 1000)
	mixed = append(mixed, pool.Domains[:500]...)
	mixed = append(mixed, benignCorpus(1000)[:500]...)
	kept := clf.DetectList(mixed)
	dgaKept := 0
	for _, d := range kept {
		if _, in := pool.Position(d); in {
			dgaKept++
		}
	}
	if len(kept) == 0 || float64(dgaKept)/float64(len(kept)) < 0.8 {
		t.Errorf("precision too low: %d/%d kept names are DGA", dgaKept, len(kept))
	}
}

func BenchmarkLexicalScore(b *testing.B) {
	clf, err := TrainLexical(benignCorpus(2000), 0.02)
	if err != nil {
		b.Fatal(err)
	}
	domains := make([]string, 64)
	for i := range domains {
		domains[i] = fmt.Sprintf("score-target-%04d.com", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Score(domains[i%len(domains)])
	}
}
