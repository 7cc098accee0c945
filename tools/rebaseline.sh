#!/usr/bin/env bash
# Regenerate the golden-test expectation blocks in
# tests/golden_test.cc and tests/ooo_core_test.cc — deliberately,
# instead of hand-editing literals.
#
# Builds the golden_baseline generator (which runs the exact
# configurations the tests run, from tests/golden_config.hh), then
# splices its output between each file's GOLDEN-BASELINE-BEGIN/END
# markers. Review the resulting diff and justify the model change in
# the PR.
#
# Usage: tools/rebaseline.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . > /dev/null
cmake --build "$BUILD_DIR" --target golden_baseline -j

BLOCK="$(mktemp)"
trap 'rm -f "$BLOCK" tests/*.cc.tmp' EXIT

# splice FILE [ARG]: put `golden_baseline [ARG]`'s output between
# FILE's markers.
splice() {
    local file="$1"
    shift
    "$BUILD_DIR/golden_baseline" "$@" > "$BLOCK"
    awk -v blockfile="$BLOCK" '
        /GOLDEN-BASELINE-BEGIN/ {
            print
            while ((getline line < blockfile) > 0) print line
            close(blockfile)
            skipping = 1
            next
        }
        /GOLDEN-BASELINE-END/ { skipping = 0 }
        !skipping { print }
    ' "$file" > "$file.tmp"
    mv "$file.tmp" "$file"
}

splice tests/golden_test.cc
splice tests/ooo_core_test.cc ooo_core

echo "rebaselined:"
git --no-pager diff --stat -- tests/golden_test.cc \
    tests/ooo_core_test.cc || true
echo "rebuild and rerun 'ctest -L golden' and ooo_core_test to confirm."
