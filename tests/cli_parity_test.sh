#!/usr/bin/env bash
# Cross-process parity: build + N x shard-run + merge through the actual CLI
# binary must produce byte-identical PairMatch output to the in-process
# engine run (`discover --shards N`) on the same corpus, for the
# similarity and containment metrics over word tokens and for edit
# similarity over q-grams, at 2 and 4 shards — through BOTH snapshot
# containers: monolithic and --split (per-shard files, where each shard-run
# must map only common + its own shard, asserted via the load accounting
# line).
#
# Usage: cli_parity_test.sh /path/to/silkmoth_cli
set -euo pipefail

CLI="${1:?usage: cli_parity_test.sh /path/to/silkmoth_cli}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Pair lines only: the '#' comment lines carry timings and are not part of
# the byte-identical contract.
pairs_only() { grep -v '^#' "$1" > "$2" || true; }

run_case() {
  local name="$1"; shift
  local corpus="$1"; shift
  local shards="$1"; shift
  # Remaining args: engine options (--metric/--phi/...).
  local dir="$TMP/$name"
  mkdir -p "$dir"

  "$CLI" discover --data "$corpus" --shards "$shards" --threads 2 "$@" \
    > "$dir/inprocess.raw"
  pairs_only "$dir/inprocess.raw" "$dir/expected.tsv"

  "$CLI" build --data "$corpus" --out "$dir/corpus.snap" \
    --shards "$shards" --threads 2 "$@" > /dev/null
  "$CLI" build --data "$corpus" --out "$dir/split.snap" --split \
    --shards "$shards" --threads 2 "$@" > /dev/null

  local total_split_bytes=0
  local f
  for f in "$dir/split.snap" "$dir/split.snap.shard"*; do
    total_split_bytes=$((total_split_bytes + $(wc -c < "$f")))
  done

  local results=() split_results=()
  for ((k = 0; k < shards; ++k)); do
    "$CLI" shard-run --snapshot "$dir/corpus.snap" --shard "$k" \
      --out "$dir/shard$k.txt" --threads 2 "$@" > /dev/null
    results+=("$dir/shard$k.txt")

    "$CLI" shard-run --snapshot "$dir/split.snap" --shard "$k" \
      --out "$dir/split_shard$k.txt" --threads 2 "$@" \
      > "$dir/split_run$k.log"
    split_results+=("$dir/split_shard$k.txt")

    # Byte accounting: a split shard-run opens exactly 2 files (common +
    # its shard) and touches fewer bytes than the whole split snapshot.
    local line
    line="$(grep '^# load:' "$dir/split_run$k.log")" \
      || fail "$name: shard $k missing load accounting line"
    local files mapped copied
    files="$(echo "$line" | sed 's/# load: \([0-9]*\) files.*/\1/')"
    mapped="$(echo "$line" | sed 's/.* \([0-9]*\) bytes mapped.*/\1/')"
    copied="$(echo "$line" | sed 's/.* \([0-9]*\) bytes copied.*/\1/')"
    [ "$files" -eq 2 ] \
      || fail "$name: split shard-run $k opened $files files, want 2"
    [ $((mapped + copied)) -lt "$total_split_bytes" ] \
      || fail "$name: split shard-run $k touched $((mapped + copied)) of \
$total_split_bytes bytes (not shard-local)"
  done

  "$CLI" merge "${results[@]}" > "$dir/merged.raw"
  pairs_only "$dir/merged.raw" "$dir/actual.tsv"
  "$CLI" merge "${split_results[@]}" > "$dir/split_merged.raw"
  pairs_only "$dir/split_merged.raw" "$dir/split_actual.tsv"

  diff -u "$dir/expected.tsv" "$dir/actual.tsv" \
    || fail "$name: merged output differs from in-process run"
  diff -u "$dir/expected.tsv" "$dir/split_actual.tsv" \
    || fail "$name: split-snapshot merged output differs from in-process run"

  # The guarantee is only interesting when the corpus actually has related
  # pairs; every generated corpus below does.
  [ -s "$dir/expected.tsv" ] || fail "$name: empty expected output"
  echo "ok: $name ($(wc -l < "$dir/expected.tsv") pairs, mono+split)"
}

"$CLI" generate schema 80 "$TMP/schema.txt" > /dev/null
"$CLI" generate dblp 40 "$TMP/dblp.txt" > /dev/null

for shards in 2 4; do
  run_case "similarity-s$shards" "$TMP/schema.txt" "$shards" \
    --metric similarity --delta 0.6
  run_case "containment-s$shards" "$TMP/schema.txt" "$shards" \
    --metric containment --delta 0.7
  run_case "edit-s$shards" "$TMP/dblp.txt" "$shards" \
    --metric similarity --phi eds --delta 0.5 --alpha 0.6
done

# Merge must also be order-insensitive: feeding the result files reversed
# cannot change a byte of the merged stream.
dir="$TMP/similarity-s4"
"$CLI" merge "$dir"/shard3.txt "$dir"/shard2.txt "$dir"/shard1.txt \
  "$dir"/shard0.txt | grep -v '^#' > "$dir/actual_reversed.tsv" || true
diff -u "$dir/expected.tsv" "$dir/actual_reversed.tsv" \
  || fail "merge is sensitive to input file order"

# Query mode (query-vs-corpus over a snapshot): the in-process `query`
# subcommand and the out-of-process build → shard-run --query → merge
# pipeline must produce byte-identical pair streams, on both snapshot
# containers, and agree with the brute-force oracle.
run_query_case() {
  local name="$1"; shift
  local corpus="$1"; shift
  local queries="$1"; shift
  local shards="$1"; shift
  local dir="$TMP/$name"
  mkdir -p "$dir"

  "$CLI" build --data "$corpus" --out "$dir/corpus.snap" \
    --shards "$shards" --threads 2 "$@" > /dev/null
  "$CLI" build --data "$corpus" --out "$dir/split.snap" --split \
    --shards "$shards" --threads 2 "$@" > /dev/null

  "$CLI" query --snapshot "$dir/corpus.snap" --input "$queries" \
    --threads 2 --oracle-check "$@" > "$dir/query.raw"
  grep -q '^# oracle agreement: yes' "$dir/query.raw" \
    || fail "$name: query output disagrees with the brute-force oracle"
  pairs_only "$dir/query.raw" "$dir/expected.tsv"

  local results=() split_results=()
  for ((k = 0; k < shards; ++k)); do
    "$CLI" shard-run --snapshot "$dir/corpus.snap" --shard "$k" \
      --query "$queries" --out "$dir/q$k.txt" --threads 2 "$@" > /dev/null
    results+=("$dir/q$k.txt")
    "$CLI" shard-run --snapshot "$dir/split.snap" --shard "$k" \
      --query "$queries" --out "$dir/sq$k.txt" --threads 2 "$@" > /dev/null
    split_results+=("$dir/sq$k.txt")
  done
  "$CLI" merge "${results[@]}" > "$dir/merged.raw"
  pairs_only "$dir/merged.raw" "$dir/actual.tsv"
  "$CLI" merge "${split_results[@]}" > "$dir/split_merged.raw"
  pairs_only "$dir/split_merged.raw" "$dir/split_actual.tsv"

  diff -u "$dir/expected.tsv" "$dir/actual.tsv" \
    || fail "$name: merged query output differs from in-process query"
  diff -u "$dir/expected.tsv" "$dir/split_actual.tsv" \
    || fail "$name: split-snapshot query output differs from in-process"
  [ -s "$dir/expected.tsv" ] || fail "$name: empty expected query output"
  echo "ok: $name ($(wc -l < "$dir/expected.tsv") pairs, query mode)"
}

# Query payloads that overlap the corpora: a slice of each corpus (its sets
# are their own best matches) keeps the result stream non-empty.
head -n 40 "$TMP/schema.txt" > "$TMP/schema_queries.txt"
head -n 30 "$TMP/dblp.txt" > "$TMP/dblp_queries.txt"

run_query_case "query-similarity-s3" "$TMP/schema.txt" \
  "$TMP/schema_queries.txt" 3 --metric similarity --delta 0.6
run_query_case "query-containment-s2" "$TMP/schema.txt" \
  "$TMP/schema_queries.txt" 2 --metric containment --delta 0.7
run_query_case "query-edit-s3" "$TMP/dblp.txt" "$TMP/dblp_queries.txt" 3 \
  --metric similarity --phi eds --delta 0.5 --alpha 0.6

echo "PASS: cross-process parity"
