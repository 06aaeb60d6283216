#!/bin/sh
# Doc drift gate (ctest: doc_check).  Five invariants over README.md and
# docs/*.md:
#
#   1. every `--flag` the docs mention is accepted by some repo binary —
#      scraped live from the usage text each binary prints on a bad
#      invocation, or by servebench/run.py — read from its
#      `add_argument("--...")` calls — so renaming or deleting a flag fails
#      this test until its documentation follows (plus a short allowlist for
#      external tools: cmake/ctest/google-benchmark);
#   2. every `bench_*` target/test name the docs mention still exists as a
#      bench source, a CMake target, a ctest name, or a fixture;
#   3. every protocol op the server accepts (`dyncg_serve --list-ops`) is
#      documented in docs/SERVING.md — adding an op without wire docs fails;
#   4. every DYNCG_* environment variable or build option the docs mention
#      still occurs in src/, tools/, bench/, tests/ or a CMake file, so
#      deleting one fails this test until its documentation follows;
#   5. every identifier in a code span of the "Code" column of
#      docs/ALGORITHMS.md (the paper -> code map) occurs as a word in src/,
#      so the map cannot point at deleted code.
#
#   dyncg_doc_check.sh SRC_DIR CLI SERVE LOAD BENCH_DIFF CHAOS
set -e
SRC=$1
shift
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
rc=0

# --- 1. flags -------------------------------------------------------------
for bin in "$@"; do
  "$bin" --totally-unknown-flag 2>&1 || true
done | grep -oE -- '--[a-z][a-z0-9_-]*' | sort -u > "$dir/flags"
grep -oE -- 'add_argument\("--[a-z][a-z0-9_-]*' "$SRC/servebench/run.py" |
  sed 's/^add_argument("//' >> "$dir/flags"
# External tools the docs legitimately reference.
cat >> "$dir/flags" <<'EOF'
--build
--preset
--target
--test-dir
--output-on-failure
--benchmark_min_time
EOF

for tok in $(grep -hoE -- '--[a-z][a-z0-9_-]*' "$SRC/README.md" \
               "$SRC"/docs/*.md | sort -u); do
  if ! grep -qx -- "$tok" "$dir/flags"; then
    echo "doc drift: documented flag $tok is accepted by no binary" >&2
    rc=1
  fi
done

# --- 2. bench targets / test names ---------------------------------------
{
  ls "$SRC/bench" | sed -n 's/\.cpp$//p'
  echo bench_all
  echo dyncg_bench_diff
  grep -hoE 'NAME [A-Za-z0-9_]+' "$SRC"/bench/CMakeLists.txt \
    "$SRC"/tools/CMakeLists.txt "$SRC"/tests/CMakeLists.txt |
    sed 's/^NAME //'
  grep -hoE 'FIXTURES_[A-Z]+ [A-Za-z0-9_]+' "$SRC"/bench/CMakeLists.txt \
    "$SRC"/tools/CMakeLists.txt "$SRC"/tests/CMakeLists.txt |
    sed 's/^FIXTURES_[A-Z]* //'
} > "$dir/targets"

for tok in $(grep -hoE 'bench_[a-z0-9_]+' "$SRC/README.md" \
               "$SRC"/docs/*.md | sort -u); do
  if ! grep -q -- "$tok" "$dir/targets"; then
    echo "doc drift: documented bench target $tok does not exist" >&2
    rc=1
  fi
done

# --- 3. protocol ops ------------------------------------------------------
SERVE=$2
for op in $("$SERVE" --list-ops); do
  if ! grep -qw -- "$op" "$SRC/docs/SERVING.md"; then
    echo "doc drift: protocol op '$op' is not documented in docs/SERVING.md" >&2
    rc=1
  fi
done

# --- 4. environment variables / build options ----------------------------
for tok in $(grep -hoE 'DYNCG_[A-Z0-9_]+' "$SRC/README.md" "$SRC"/docs/*.md |
               sort -u); do
  if ! grep -rqw -- "$tok" "$SRC/src" "$SRC/tools" "$SRC/bench" "$SRC/tests" \
       "$SRC/CMakeLists.txt" "$SRC/CMakePresets.json"; then
    echo "doc drift: documented name $tok occurs in no source or CMake file" >&2
    rc=1
  fi
done

# --- 5. paper -> code map -------------------------------------------------
for tok in $(awk -F'|' '/^\| / && $3 !~ /^ *Code *$/ { print $3 }' \
               "$SRC/docs/ALGORITHMS.md" | grep -oE '`[^`]+`' |
               grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u); do
  if ! grep -rqw -- "$tok" "$SRC/src"; then
    echo "doc drift: docs/ALGORITHMS.md maps to $tok, which is not in src/" >&2
    rc=1
  fi
done

exit $rc
