#!/usr/bin/env bash
# Fails when a `go test -run` list in the CI workflow names a test that does
# not exist. go test runs nothing, and says nothing, for a -run alternative
# that matches no test, so a renamed or deleted test would otherwise drop out
# of its CI step silently. Every |-separated alternative of every -run list
# in .github/workflows/ci.yml must match — as go test matches it, an
# unanchored regular expression, up to its first "/" — the name of at least
# one `func Test…(` in the repository.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
workflow=.github/workflows/ci.yml

names="$(grep -rhoE --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
  '^func Test[[:alnum:]_]*\(' . | sed -E 's/^func //; s/\($//' | LC_ALL=C sort -u)"
# Comment lines are left out: they talk about -run lists, they do not run one.
lists="$(grep -vE '^[[:space:]]*#' "$workflow" |
  grep -oE -- "-run ('[^']*'|\"[^\"]*\"|[^ '\"]+)" |
  sed -E "s/^-run //; s/^['\"]//; s/['\"]$//")"

checked=0
missing=0
while IFS= read -r list; do
  IFS='|' read -ra alts <<<"$list"
  for alt in "${alts[@]}"; do
    checked=$((checked + 1))
    if ! grep -qE -- "${alt%%/*}" <<<"$names"; then
      echo "$workflow: -run alternative '$alt' matches no func Test…( in the repository" >&2
      missing=$((missing + 1))
    fi
  done
done <<<"$lists"

if [ "$missing" -gt 0 ]; then
  echo "$missing of $checked -run alternatives name no test" >&2
  exit 1
fi
echo "all $checked -run alternatives name a test"
