#!/bin/sh
# tdram_lint analysis gate (DESIGN.md §15). Builds the project-specific
# static analyzer and runs it over the whole tree (src/, bench/,
# examples/, tools/). Zero unsuppressed findings is the bar; every
# intentional exception is a `// tdram-lint:allow(rule): rationale`
# comment in the source.
#
# Usage: run_tdram_lint.sh [build-dir]
# Exit codes: 0 clean, 1 findings, 2 cmake configure/build failure
# (toolchain problem, not a lint verdict), 77 skip (no cmake / no C++
# compiler in PATH — a local convenience; in GitHub Actions 77 renders
# as a plain job failure, which is fine because CI runners always have
# both). Findings are echoed and also written to tdram-lint.log in the
# build dir so CI can upload them as an artifact; configure/build
# output goes to tdram-lint-build.log, dumped on failure.

set -u

SRC_DIR=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${1:-$SRC_DIR/build-lint}

command -v cmake >/dev/null 2>&1 || {
    echo "skip: no cmake in PATH"
    exit 77
}
command -v c++ >/dev/null 2>&1 || command -v g++ >/dev/null 2>&1 || {
    echo "skip: no C++ compiler in PATH"
    exit 77
}

mkdir -p "$BUILD_DIR"
BUILD_LOG="$BUILD_DIR/tdram-lint-build.log"

# The linter is dependency-free (no GTest/zstd); TDRAM_LINT_ONLY
# configures just its targets, so this works on runners without the
# simulator's test packages installed.
if ! cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
        -DCMAKE_BUILD_TYPE=Release \
        -DTDRAM_LINT_ONLY=ON >"$BUILD_LOG" 2>&1; then
    cat "$BUILD_LOG"
    echo "error: cmake configure failed (toolchain problem, not a lint finding)"
    exit 2
fi
if ! cmake --build "$BUILD_DIR" --target tdram_lint -j >>"$BUILD_LOG" 2>&1; then
    cat "$BUILD_LOG"
    echo "error: tdram_lint build failed (toolchain problem, not a lint finding)"
    exit 2
fi

LOG="$BUILD_DIR/tdram-lint.log"
if "$BUILD_DIR/tools/tdram_lint" --root "$SRC_DIR" >"$LOG" 2>&1; then
    cat "$LOG"
    exit 0
fi
cat "$LOG"
echo "FAIL: tdram_lint reported findings (see above / $LOG)"
exit 1
