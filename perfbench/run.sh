#!/usr/bin/env bash
# Builds csserve, csgate and the benchmark driver from this checkout's
# sources, then runs one benchmark workload. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload plan-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache included), so the first run of a fresh
# checkout builds from scratch and later runs reuse the cache.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0
mkdir -p "$build/bin"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/csserve" ]; then
  echo "perfbench: run from the repository root (no go.mod or cmd/csserve here)" >&2
  exit 2
fi
go build -o "$build/bin/" ./cmd/csserve ./cmd/csgate >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -spans "$build/spans" "$@"
