package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"

	"botmeter/internal/trace"
)

func TestLoadZone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "zone.txt")
	content := "# comment\n\nplain.com\nwithip.net 198.51.100.7\nDotted.org.\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	zone, err := loadZone(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(zone) != 3 {
		t.Fatalf("zone = %v", zone)
	}
	if !zone["plain.com"].Equal(net.ParseIP("192.0.2.1")) {
		t.Error("default sinkhole IP missing")
	}
	if !zone["withip.net"].Equal(net.ParseIP("198.51.100.7")) {
		t.Error("explicit IP not parsed")
	}
	if _, ok := zone["dotted.org"]; !ok {
		t.Error("trailing dot not normalised")
	}
	if err := os.WriteFile(path, []byte("bad.com not-an-ip\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadZone(path); err == nil {
		t.Error("bad IP should fail")
	}
	if zone, err := loadZone(""); err != nil || len(zone) != 0 {
		t.Error("empty path should give empty zone")
	}
}

// TestRunRecoversTornObserved: run() must truncate a torn final line before
// appending, so a crash-interrupted capture stays strictly readable.
func TestRunRecoversTornObserved(t *testing.T) {
	dir := t.TempDir()
	obsPath := filepath.Join(dir, "obs.jsonl")
	torn := `{"t":1,"server":"10.0.0.5","domain":"old.example"}` + "\n" + `{"t":2,"server":"10.0`
	if err := os.WriteFile(obsPath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	if removed, err := trace.TruncateTornTail(obsPath); err != nil || removed == 0 {
		t.Fatalf("recovery: %d, %v", removed, err)
	}
	data, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	obs, _, err := trace.ReadObserved(bytes.NewReader(data), trace.ReadOptions{})
	if err != nil || len(obs) != 1 || obs[0].Domain != "old.example" {
		t.Errorf("recovered capture = %+v, %v", obs, err)
	}
}
