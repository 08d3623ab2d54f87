#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Build outputs, the Go build cache and
# its temporary files, the toolchain's user configuration (it keeps
# telemetry counters there) and trace files go under $CARGO_TARGET_DIR
# (default .bench_build), so a run writes nothing outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
# A run builds and drops simulated disks of up to 400 MB. With MADV_FREE the
# Go runtime reuses the pages it hands back without a new page fault, so the
# timed calls do not pay the kernel's first-touch cost, which varies sharply
# with the memory pressure other tenants put on the machine.
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$out/perfbench" -outdir "$out/traces" "$@"
