#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (binary, Go build cache) lands under bench/out,
# which .gitignore names; nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
export GOCACHE="$here/out/gocache" GOMODCACHE="$here/out/gomod"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o out/cascadebench .)
exec "$here/out/cascadebench" -out "$here/out" "$@"
