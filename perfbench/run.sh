#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload analytics --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binary, data dirs, span files) stays
# under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root; no sgb sources here" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
