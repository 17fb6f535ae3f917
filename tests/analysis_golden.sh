#!/bin/sh
# Golden of every analysis output a task graph reaches through the engine:
#   * pdlcheck --plan --graph, text and SARIF, for each tests/fixtures/*.graph
#     on each committed platform (platforms/*.pdl.xml plus the undersized
#     and fp32 fixtures);
#   * pdlcheck --plan --program for each examples/*.cpp and the annotated
#     DGEMM fixture on the 2-GPU testbed;
#   * starmc's exploration summary for each fixture at 2 and 3 devices.
# Commands run from the repository root with repo-relative paths, so the
# record holds no machine-specific path.
#
#   tests/analysis_golden.sh <build-dir>           compare with the golden
#   tests/analysis_golden.sh <build-dir> --record  rewrite the golden
set -u
LC_ALL=C  # one glob order and number format on every host
export LC_ALL
[ $# -ge 1 ] || { echo "usage: $0 <build-dir> [--record]" >&2; exit 2; }
build=$(cd "$1" && pwd) || exit 2
cd "$(dirname "$0")/.." || exit 2
golden=tests/fixtures/analysis.golden
pdlcheck="$build/src/tools/pdlcheck"
starmc="$build/src/tools/starmc"

# Runs one tool with repo-relative arguments; the record shows the
# command (without the build directory), its output and its exit code.
run() {
  tool=$1
  shift
  printf '$ %s %s\n' "$(basename "$tool")" "$*"
  "$tool" "$@" 2>&1
  echo "exit $?"
}

generate() {
  for graph in tests/fixtures/*.graph; do
    for platform in platforms/*.pdl.xml tests/fixtures/undersized.pdl.xml \
                    tests/fixtures/fp32-testbed.pdl.xml; do
      run "$pdlcheck" --plan --graph "$graph" "$platform"
      run "$pdlcheck" --plan --format=sarif --graph "$graph" "$platform"
    done
  done
  for program in examples/*.cpp tests/fixtures/dgemm_pipeline.cascabel.cpp; do
    run "$pdlcheck" --plan --program "$program" \
        platforms/testbed-starpu-2gpu.pdl.xml
  done
  for graph in tests/fixtures/*.graph; do
    for devices in 2 3; do
      run "$starmc" --graph "$graph" --devices "$devices"
    done
  done
}

if [ "${2:-}" = "--record" ]; then
  generate > "$golden"
  echo "recorded $golden"
  exit 0
fi
out=$(mktemp) || exit 2
trap 'rm -f "$out"' EXIT
generate > "$out"
if ! diff -u "$golden" "$out"; then
  echo "analysis output differs from $golden" >&2
  exit 1
fi
echo "analysis output matches $golden"
