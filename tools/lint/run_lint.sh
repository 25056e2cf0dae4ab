#!/usr/bin/env bash
# Build (if needed) and run thermostat_lint over the repository with
# the checked-in suppression baseline.  Extra arguments are passed
# through (e.g. --ci, --format sarif, --list-rules, or explicit paths).
#
#   --timing   run a full-repo lint, print a "lint_full" timing row,
#              and fail if the scan takes 5 s or longer.
#
# Exit status mirrors the tool: 0 clean, 1 findings, 2 error.
set -euo pipefail
cd "$(dirname "$0")/../.." || exit

build_dir="${BUILD_DIR:-build}"
lint_bin="$build_dir/tools/lint/thermostat_lint"

if [[ ! -x "$lint_bin" ]]; then
    cmake -B "$build_dir" -S . >/dev/null
    cmake --build "$build_dir" --target thermostat_lint -j"$(nproc)" >/dev/null
fi

if [[ "${1:-}" == "--timing" ]]; then
    shift
    start_ns=$(date +%s%N)
    status=0
    "$lint_bin" --root . "$@" || status=$?
    end_ns=$(date +%s%N)
    elapsed_ms=$(( (end_ns - start_ns) / 1000000 ))
    printf 'lint_full cold_ms=%d budget_ms=5000\n' "$elapsed_ms"
    if (( elapsed_ms >= 5000 )); then
        echo "run_lint.sh: cold full-repo lint exceeded 5 s budget" >&2
        exit 1
    fi
    exit "$status"
fi

exec "$lint_bin" --root . "$@"
