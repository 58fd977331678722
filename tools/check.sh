#!/usr/bin/env bash
# Single entry point for the static verification layer — exactly what the CI
# tidy-lint job runs, so "tools/check.sh passes locally" means that job is
# green. Usage:
#
#   tools/check.sh [build-dir]       # default build dir: build
#
# Runs, in order:
#   1. determinism lint self-test (the rules still catch seeded violations)
#   2. determinism lint fixture agreement (the shared corpus under
#      tools/tidy/fixtures/ still produces exactly the findings pinned in
#      expected.json — the contract the EvmTidyModule plugin is held to)
#   3. determinism lint over src/
#   4. EVM_SANITIZE option validation
#   5. bench-compare self-test, plus the real comparison of any
#      $BUILD_DIR/BENCH_*.json against the committed repo-root baselines
#      (mirrors the CI bench-regression job; skipped when no bench output
#      exists in the build dir)
#   6. clang-tidy over src/ (skipped with a note if clang-tidy is not
#      installed — the container toolchain is gcc-only; CI installs clang).
#      When the EvmTidyModule plugin was built ($BUILD_DIR/tools/tidy/
#      libEvmTidyModule.so), it is loaded so the evm-* checks run too, the
#      plugin fixture self-test runs first, and the lock-order / counter
#      fragments are merged by tools/tidy/postpass.py afterwards.
#
# No build is required for steps 1-5 (5 compares only if benches were run);
# step 6 needs a configured build dir with compile_commands.json (any
# compiler: the compile database only feeds clang-tidy's parser).

set -u
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
PYTHON="${PYTHON:-python3}"
CMAKE="${CMAKE:-cmake}"
failures=0

step() {
  echo "==> $1"
  shift
  if "$@"; then
    echo "    PASS"
  else
    echo "    FAIL: $*" >&2
    failures=$((failures + 1))
  fi
}

step "determinism lint: self-test" "$PYTHON" tools/lint.py --self-test
step "determinism lint: fixtures" "$PYTHON" tools/lint.py --fixtures
step "determinism lint: src/" "$PYTHON" tools/lint.py --root .
step "sanitizer option validation" "$CMAKE" -P tools/sanitize_option_test.cmake
step "bench compare: self-test" "$PYTHON" tools/bench_compare.py --self-test

# --allow-new tolerates a baseline that is being introduced in the current
# change (bench_compare validates the fresh output and passes); committed
# baselines are compared as usual.
for bench_json in BENCH_core_ops.json BENCH_stream.json \
                  BENCH_distributed.json; do
  if [ -f "$BUILD_DIR/$bench_json" ]; then
    step "bench compare: $bench_json" "$PYTHON" tools/bench_compare.py \
      --allow-new "$bench_json" "$BUILD_DIR/$bench_json"
  else
    echo "==> bench compare: SKIP $bench_json (no $BUILD_DIR/$bench_json;" \
      "run the micro benches first)"
  fi
done

PLUGIN="$BUILD_DIR/tools/tidy/libEvmTidyModule.so"
if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "$BUILD_DIR/compile_commands.json" ]; then
    if [ -f "$PLUGIN" ]; then
      # Plugin fixture self-test first: a plugin that disagrees with
      # expected.json must not be allowed to "pass" over src/. Exit 77
      # (ABI-mismatch skip) is not a failure.
      "$PYTHON" tools/tidy/run_fixtures.py --plugin "$PLUGIN"
      fixture_rc=$?
      if [ "$fixture_rc" -eq 77 ]; then
        echo "==> evm-tidy fixtures: SKIP (plugin/clang-tidy mismatch)"
        step "clang-tidy" "$PYTHON" tools/lint.py --root . --tidy \
          --require-tidy -p "$BUILD_DIR"
      else
        if [ "$fixture_rc" -eq 0 ]; then
          echo "==> evm-tidy fixtures"; echo "    PASS"
        else
          echo "    FAIL: tools/tidy/run_fixtures.py" >&2
          failures=$((failures + 1))
        fi
        FRAGMENTS="$BUILD_DIR/tidy-fragments"
        rm -rf "$FRAGMENTS"
        step "clang-tidy + EvmTidyModule" "$PYTHON" tools/lint.py --root . \
          --tidy --require-tidy -p "$BUILD_DIR" --plugin "$PLUGIN" \
          --fragments-dir "$FRAGMENTS"
        step "evm-tidy postpass" "$PYTHON" tools/tidy/postpass.py --root . \
          --graph-dir "$FRAGMENTS" --counters-dir "$FRAGMENTS" \
          --merged-graph "$BUILD_DIR/lock_graph.json"
      fi
    else
      step "clang-tidy" "$PYTHON" tools/lint.py --root . --tidy \
        --require-tidy -p "$BUILD_DIR"
      echo "==> evm-tidy plugin: SKIP ($PLUGIN not built; configure with" \
        "-DEVM_TIDY=ON where clang-tidy dev headers exist)"
    fi
  else
    echo "==> clang-tidy: SKIP ($BUILD_DIR/compile_commands.json missing;" \
      "configure with cmake -B $BUILD_DIR first)"
  fi
else
  echo "==> clang-tidy: SKIP (not installed)"
fi

if [ "$failures" -ne 0 ]; then
  echo "check.sh: $failures step(s) failed" >&2
  exit 1
fi
echo "check.sh: all steps passed"
