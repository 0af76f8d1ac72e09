#!/usr/bin/env bash
# Builds ravencached and the benchmark from source into .bench_build/,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload served-evict --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh steady --runs 10 --seconds 15
#
# Every build output, the Go build cache included, stays under
# .bench_build/ in the working directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/gopath" "${out}/config"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOPATH="${out}/gopath"
# The go command keeps its telemetry state under the user config
# directory; keep that in the checkout too, with telemetry off: in its
# default "local" mode every go command starts a detached child process
# that outlives it.
export XDG_CONFIG_HOME="${out}/config"
mkdir -p "${XDG_CONFIG_HOME}/go/telemetry"
printf 'off\n' > "${XDG_CONFIG_HOME}/go/telemetry/mode"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOENV=off

go build -o "${out}/ravencached" ./cmd/ravencached
(cd perfbench && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
