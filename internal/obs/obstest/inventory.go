package obstest

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Inventory lists what an exposition exports, one line per (family, TYPE,
// label set): "name type" followed by the sorted label pairs of each series
// the family holds. Values are not part of it. A histogram's series count
// once, without their le label, and a shard label reads shard="*", because
// the number of shards follows the CPU count. Label values must hold no
// comma. The lines come back sorted.
func Inventory(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	typ := make(map[string]string)
	seen := make(map[string]bool)
	family := ""
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			family, typ[f[2]] = f[2], f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(series, "{")
		if !strings.HasPrefix(name, family) || family == "" {
			return nil, fmt.Errorf("obstest: series %s follows no TYPE line of its family", series)
		}
		var kept []string
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			switch k, _, _ := strings.Cut(kv, "="); k {
			case "", "le":
			case "shard":
				kept = append(kept, `shard="*"`)
			default:
				kept = append(kept, kv)
			}
		}
		sort.Strings(kept)
		seen[family+" "+typ[family]+" {"+strings.Join(kept, ",")+"}"] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}
