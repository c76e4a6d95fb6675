#!/usr/bin/env bash
# AddressSanitizer / UBSan gate: the memory-safety sibling of
# scripts/check_tsan.sh.
#
# Configures a dedicated build tree with -DAPIM_SANITIZE=address (or
# undefined), builds everything, and runs the full test suite under the
# sanitizer. The RelWithDebInfo flags are overridden to drop -DNDEBUG, so
# every assert in src/ runs under the sanitizer too. Exits nonzero on any
# sanitizer report, failed assert or test failure.
#
# Usage: scripts/check_asan.sh [build-dir] [address|undefined]
#   (defaults: build-asan, address)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
SANITIZER="${2:-address}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g" \
  -DAPIM_SANITIZE="$SANITIZER"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Make the first report fail the offending test binary (and so ctest).
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "${SANITIZER} sanitizer check passed."
