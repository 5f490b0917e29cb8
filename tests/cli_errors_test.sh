#!/usr/bin/env bash
# CLI error-path coverage: every misuse of the snapshot protocol must exit
# with its documented code (docs/CLI.md, "Exit codes") and a one-line
# diagnostic on stderr — never a crash, never a zero exit, never silence.
#
#   1 io   2 usage   3 corrupt-input   4 incompatible
#   5 worker-failure   6 partial-result
#
# Usage: cli_errors_test.sh /path/to/silkmoth_cli
set -euo pipefail

CLI="${1:?usage: cli_errors_test.sh /path/to/silkmoth_cli}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# expect_error NAME CODE PATTERN -- ARGS...: the CLI must exit with exactly
# CODE and print a diagnostic matching PATTERN on stderr.
expect_error() {
  local name="$1" code="$2" pattern="$3"
  shift 4  # name, code, pattern, "--"
  local rc=0
  "$CLI" "$@" > "$TMP/out.log" 2> "$TMP/err.log" || rc=$?
  [ "$rc" -eq "$code" ] || fail "$name: expected exit $code, got $rc"
  grep -q "$pattern" "$TMP/err.log" \
    || fail "$name: stderr missing '$pattern': $(cat "$TMP/err.log")"
  echo "ok: $name (exit $rc)"
}

"$CLI" generate schema 20 "$TMP/corpus.txt" > /dev/null
"$CLI" build --data "$TMP/corpus.txt" --out "$TMP/corpus.snap" --shards 2 \
  > /dev/null
"$CLI" shard-run --snapshot "$TMP/corpus.snap" --shard 0 \
  --out "$TMP/r0.txt" > /dev/null

expect_error "unknown subcommand" 2 "unknown subcommand: frobnicate" -- \
  frobnicate --data "$TMP/corpus.txt"
expect_error "build without --out" 2 "build needs --data and --out" -- \
  build --data "$TMP/corpus.txt"
expect_error "shard-run without snapshot" 2 "shard-run needs --snapshot" -- \
  shard-run --shard 0 --out "$TMP/r.txt"
expect_error "shard-run missing snapshot file" 1 "cannot open" -- \
  shard-run --snapshot "$TMP/nonexistent.snap" --shard 0 --out "$TMP/r.txt"
expect_error "shard-run shard out of range" 2 "out of range" -- \
  shard-run --snapshot "$TMP/corpus.snap" --shard 7 --out "$TMP/r.txt"
expect_error "shard-run shard above 2^32-1" 2 \
  "shard id 4294967296 out of range" -- \
  shard-run --snapshot "$TMP/corpus.snap" --shard 4294967296 --out "$TMP/r.txt"
expect_error "shard-run negative shard" 2 "shard-run needs --shard" -- \
  shard-run --snapshot "$TMP/corpus.snap" --shard -3 --out "$TMP/r.txt"
expect_error "shard-run non-numeric shard" 2 "invalid --shard value: tow" -- \
  shard-run --snapshot "$TMP/corpus.snap" --shard tow --out "$TMP/r.txt"
expect_error "shard-run phi mismatch" 4 "rebuild the snapshot" -- \
  shard-run --snapshot "$TMP/corpus.snap" --shard 0 --out "$TMP/r.txt" \
  --phi eds --alpha 0.6
expect_error "merge with zero inputs" 2 \
  "merge needs at least one shard result file" -- merge
expect_error "merge missing file" 1 "cannot open" -- \
  merge "$TMP/nonexistent-result.txt"
expect_error "merge incomplete shard cover" 4 "missing result for shard" -- \
  merge "$TMP/r0.txt"
expect_error "merge duplicate shard" 4 "duplicate result for shard" -- \
  merge "$TMP/r0.txt" "$TMP/r0.txt"
expect_error "merge non-result file" 3 "not a silkmoth shard result" -- \
  merge "$TMP/corpus.txt"
expect_error "shard-run on text file" 3 "bad magic" -- \
  shard-run --snapshot "$TMP/corpus.txt" --shard 0 --out "$TMP/r.txt"
expect_error "stray positional argument" 2 \
  "unexpected argument: extra.txt" -- \
  discover --data "$TMP/corpus.txt" extra.txt
expect_error "discover missing data file" 1 "cannot read" -- \
  discover --data "$TMP/nonexistent.txt"
expect_error "run without --data" 2 "run needs --data" -- run --shards 2
expect_error "run negative retries" 2 "must be non-negative" -- \
  run --data "$TMP/corpus.txt" --retries -1
expect_error "run malformed inject plan" 2 "invalid --inject value" -- \
  run --data "$TMP/corpus.txt" --inject frobnicate

# Numeric and enum flags are validated whole-string: junk exits 2 naming
# the flag and the value instead of running with a silently parsed number.
expect_error "discover non-numeric alpha" 2 "invalid --alpha value: eighty" -- \
  discover --data "$TMP/corpus.txt" --alpha eighty
expect_error "discover trailing junk delta" 2 "invalid --delta value: 0.5x" -- \
  discover --data "$TMP/corpus.txt" --delta 0.5x
expect_error "discover non-numeric q" 2 "invalid --q value: abc" -- \
  discover --data "$TMP/corpus.txt" --phi eds --alpha 0.8 --q abc
expect_error "discover trailing junk threads" 2 \
  "invalid --threads value: 4x" -- \
  discover --data "$TMP/corpus.txt" --threads 4x
expect_error "discover unknown metric" 2 "invalid --metric value: bogus" -- \
  discover --data "$TMP/corpus.txt" --metric bogus
expect_error "generate non-numeric N" 2 "invalid N value: ten" -- \
  generate dblp ten "$TMP/gen.txt"
expect_error "generate negative N" 2 "invalid N value: -5" -- \
  generate dblp -5 "$TMP/gen.txt"

# Shards run under different query options must not merge: the combined
# stream would match no single-process run.
"$CLI" shard-run --snapshot "$TMP/corpus.snap" --shard 1 \
  --out "$TMP/r1_other_delta.txt" --delta 0.9 > /dev/null
expect_error "merge options mismatch" 4 "disagree on query options" -- \
  merge "$TMP/r0.txt" "$TMP/r1_other_delta.txt"

# A truncated result file must be caught by the reader's self-checks, not
# merged silently: drop the trailing pair lines of a valid result.
head -n 6 "$TMP/r0.txt" > "$TMP/r0_truncated.txt"
expect_error "merge truncated result" 3 "" -- merge "$TMP/r0_truncated.txt"

# --- degraded partial merge -------------------------------------------------
# With --allow-partial the same incomplete cover merges, stamps its
# coverage ahead of the pairs, and exits kPartialResult — distinguishable
# from both success and failure.
rc=0
"$CLI" merge "$TMP/r0.txt" --allow-partial > "$TMP/partial.log" 2>&1 || rc=$?
[ "$rc" -eq 6 ] || fail "merge --allow-partial: expected exit 6, got $rc"
grep -q "# partial coverage: 1 of 2 shards" "$TMP/partial.log" \
  || fail "merge --allow-partial: missing coverage stamp"
grep -q "# covered shards: 0" "$TMP/partial.log" \
  || fail "merge --allow-partial: missing covered-shards line"
grep -q "# missing shards: 1" "$TMP/partial.log" \
  || fail "merge --allow-partial: missing missing-shards line"
echo "ok: merge --allow-partial stamps coverage (exit 6)"

# --- query mode -------------------------------------------------------------

expect_error "query without snapshot" 2 \
  "query needs --snapshot and --input" -- query --input "$TMP/corpus.txt"
expect_error "query without input" 2 "query needs --snapshot and --input" -- \
  query --snapshot "$TMP/corpus.snap"
expect_error "query missing input file" 1 "cannot read" -- \
  query --snapshot "$TMP/corpus.snap" --input "$TMP/nonexistent.txt"
expect_error "query missing snapshot file" 1 "cannot open" -- \
  query --snapshot "$TMP/nonexistent.snap" --input "$TMP/corpus.txt"
expect_error "query phi mismatch" 4 "rebuild the snapshot" -- \
  query --snapshot "$TMP/corpus.snap" --input "$TMP/corpus.txt" \
  --phi eds --alpha 0.6
expect_error "shard-run missing query file" 1 "cannot read" -- \
  shard-run --snapshot "$TMP/corpus.snap" --shard 0 --out "$TMP/r.txt" \
  --query "$TMP/nonexistent.txt"

# Reference payloads are fingerprinted: shards run against different query
# files — or a query shard against a self-join shard — must not merge.
head -n 3 "$TMP/corpus.txt" > "$TMP/queries_a.txt"
head -n 5 "$TMP/corpus.txt" > "$TMP/queries_b.txt"
"$CLI" shard-run --snapshot "$TMP/corpus.snap" --shard 0 \
  --query "$TMP/queries_a.txt" --out "$TMP/qa0.txt" > /dev/null
"$CLI" shard-run --snapshot "$TMP/corpus.snap" --shard 1 \
  --query "$TMP/queries_b.txt" --out "$TMP/qb1.txt" > /dev/null
"$CLI" shard-run --snapshot "$TMP/corpus.snap" --shard 1 \
  --out "$TMP/rself1.txt" > /dev/null
expect_error "merge mixed query payloads" 4 "different query payloads" -- \
  merge "$TMP/qa0.txt" "$TMP/qb1.txt"
expect_error "merge query with self-join" 4 \
  "a query run against a self-join run" -- \
  merge "$TMP/qa0.txt" "$TMP/rself1.txt"

# --- serve / serve-client ---------------------------------------------------

expect_error "serve without snapshot" 2 "serve needs --snapshot" -- \
  serve --listen "$TMP/x.sock"
expect_error "serve without transport" 2 \
  "exactly one of --listen SOCK or" -- serve --snapshot "$TMP/corpus.snap"
expect_error "serve with both transports" 2 \
  "exactly one of --listen SOCK or" -- \
  serve --snapshot "$TMP/corpus.snap" --listen "$TMP/x.sock" --stdio
expect_error "serve zero queue" 2 "must be positive" -- \
  serve --snapshot "$TMP/corpus.snap" --stdio --max-queue 0
expect_error "serve negative deadline" 2 "non-negative" -- \
  serve --snapshot "$TMP/corpus.snap" --stdio --request-deadline -1
expect_error "serve missing snapshot file" 1 "cannot open" -- \
  serve --snapshot "$TMP/nonexistent.snap" --stdio
expect_error "serve on text file" 3 "bad magic" -- \
  serve --snapshot "$TMP/corpus.txt" --stdio
expect_error "serve-client without connect" 2 \
  "serve-client needs --connect" -- serve-client --ping
expect_error "serve-client without action" 2 "exactly one of --ping" -- \
  serve-client --connect "$TMP/x.sock"
expect_error "serve-client conflicting actions" 2 "exactly one of --ping" -- \
  serve-client --connect "$TMP/x.sock" --ping --shutdown
expect_error "serve-client no daemon" 1 "cannot connect" -- \
  serve-client --connect "$TMP/no-daemon.sock" --ping

# --- ingest / compact / delta files -----------------------------------------

expect_error "ingest without delta-out" 2 \
  "ingest needs --snapshot, --input, and --delta-out" -- \
  ingest --snapshot "$TMP/corpus.snap" --input "$TMP/corpus.txt"
expect_error "ingest missing snapshot file" 1 "cannot open" -- \
  ingest --snapshot "$TMP/nonexistent.snap" --input "$TMP/corpus.txt" \
  --delta-out "$TMP/d.txt"
expect_error "ingest missing batch file" 1 "cannot read" -- \
  ingest --snapshot "$TMP/corpus.snap" --input "$TMP/no-batch.txt" \
  --delta-out "$TMP/d.txt"
expect_error "compact without out" 2 "compact needs --snapshot and --out" -- \
  compact --snapshot "$TMP/corpus.snap"
expect_error "compact zero shards" 2 "shards must be" -- \
  compact --snapshot "$TMP/corpus.snap" --out "$TMP/c.snap" --shards 0
expect_error "compact missing delta file" 1 "cannot read" -- \
  compact --snapshot "$TMP/corpus.snap" --out "$TMP/c.snap" \
  --delta-file "$TMP/no-delta.txt"
expect_error "discover snapshot with shards override" 2 \
  "partition from the snapshot" -- \
  discover --snapshot "$TMP/corpus.snap" --shards 2
expect_error "query missing delta file" 1 "cannot read" -- \
  query --snapshot "$TMP/corpus.snap" --input "$TMP/corpus.txt" \
  --delta-file "$TMP/no-delta.txt"

# --- EPIPE: a closed stdout is an I/O failure, not a crash ------------------
# SIGPIPE is ignored process-wide, so writing discovery output into a pipe
# whose reader quit surfaces as a diagnosed kIo exit — never a silent
# signal death. head -c closes the pipe after 64 bytes; the discover output
# is far larger, so a flush must hit EPIPE.
"$CLI" generate columns 300 "$TMP/big.txt" > /dev/null
rc=0
"$CLI" discover --data "$TMP/big.txt" --metric containment --delta 0.05 \
  --alpha 0.0 2> "$TMP/epipe.err" | head -c 64 > /dev/null || rc=$?
[ "$rc" -eq 1 ] || fail "EPIPE: expected exit 1 (io), got $rc"
grep -q "stdout write failed" "$TMP/epipe.err" \
  || fail "EPIPE: missing diagnostic: $(cat "$TMP/epipe.err")"
echo "ok: EPIPE on stdout exits 1 with a diagnostic (exit $rc)"

echo "PASS: CLI error paths"
