#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
#   scripts/run_sanitized.sh            # ASan+UBSan, full suite
#   scripts/run_sanitized.sh asan       # same
#   scripts/run_sanitized.sh tsan       # TSan, parallel-engine tests
#   scripts/run_sanitized.sh all        # both, in sequence
#
# Sanitizer matrix (WORMNET_SANITIZE in the top-level CMakeLists):
#   address -> -fsanitize=address,undefined  (ASan AND UBSan; the
#              "asan" mode here has always included UBSan)
#   thread  -> -fsanitize=thread             (TSan; exclusive of ASan)
#
# Each sanitizer uses its own build tree (build-asan / build-tsan) so
# the normal build stays untouched. Any sanitizer report fails the
# run: ASan and TSan abort on errors by default, and halt_on_error
# makes UBSan do the same.
#
# The TSan pass runs the tests that exercise parallelFor and the
# parallel experiment harness (test_parallel, test_experiment) and
# the DWFG jobs-invariance batch (whole simulations with probe
# bookkeeping on worker threads): that is where threads share state.
# Each simulation itself steps on one thread. TSAN_CTEST_RE overrides
# the selection; the full suite under TSan works too, it is just slow.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=${1:-asan}

run_asan() {
    local build_dir=${BUILD_DIR:-build-asan}
    cmake -B "$build_dir" -S . -DWORMNET_SANITIZE=address \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$build_dir" -j "$(nproc)"

    UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    ASAN_OPTIONS="detect_leaks=1" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

run_tsan() {
    local build_dir=${TSAN_BUILD_DIR:-build-tsan}
    cmake -B "$build_dir" -S . -DWORMNET_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$build_dir" -j "$(nproc)"

    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ctest --test-dir "$build_dir" --output-on-failure \
        -R "${TSAN_CTEST_RE:-ParallelFor|ParallelDeterminism|Experiment|DwfgDifferential.Batch}" \
        -j "$(nproc)"
}

case "$MODE" in
    asan) run_asan ;;
    tsan) run_tsan ;;
    all) run_asan; run_tsan ;;
    *)
        echo "usage: $0 [asan|tsan|all]" >&2
        exit 2
        ;;
esac
