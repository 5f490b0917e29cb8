#!/usr/bin/env python3
"""Validates BENCH_*.json files against the documented schema contract.

Schema version 1 (docs/CLI.md, "Bench report schema"): required keys with
required types, `bench_schema_version == 1`, non-negative latencies, and the
percentile ordering p50 <= p95 <= p99 <= max. The required `funnel.*` keys
are every counter of the kSearchCounters table in src/core/stats.h, read
from the source so a new counter is checked without editing this script.
Run by tests/bench_json_test.sh and by the CI bench smoke after it
regenerates the committed reports.

Usage: bench_schema_check.py BENCH.json [BENCH.json ...]
Exits non-zero with one diagnostic line per violation.
"""

import json
import re
import sys
from pathlib import Path

INT = int
NUM = (int, float)

# key path -> required type(s). Extra keys are allowed (additions don't bump
# the schema version); missing or mistyped keys fail.
REQUIRED = {
    ("bench_schema_version",): INT,
    ("workload", "name"): str,
    ("workload", "scenario"): str,
    ("workload", "corpus"): str,
    ("workload", "corpus_sets"): INT,
    ("workload", "corpus_seed"): INT,
    ("workload", "metric"): str,
    ("workload", "phi"): str,
    ("workload", "delta"): NUM,
    ("workload", "alpha"): NUM,
    ("workload", "q"): INT,
    ("workload", "scheme"): str,
    ("workload", "exact_scores"): bool,
    ("workload", "num_shards"): INT,
    ("workload", "mix"): str,
    ("workload", "zipf_skew"): NUM,
    ("workload", "requests"): INT,
    ("workload", "batch"): INT,
    ("workload", "request_seed"): INT,
    ("workload", "workers"): INT,
    ("workload", "mode"): str,
    ("workload", "sustained_seconds"): NUM,
    ("workload", "top_k"): INT,
    ("workload", "delta_sets"): INT,
    ("corpus", "sets"): INT,
    ("corpus", "elements"): INT,
    ("corpus", "tokens"): INT,
    ("requests", "total"): INT,
    ("requests", "reference_sets"): INT,
    ("requests", "stream_hash"): str,
    ("requests", "oov_tokens"): INT,
    ("results", "pairs_per_round"): INT,
    ("delta", "sets"): INT,
    ("delta", "oov_tokens"): INT,
    ("delta", "pairs_pre_ingest"): INT,
    ("per_shard_results",): list,
    ("timing", "build_seconds"): NUM,
    ("timing", "ingest_seconds"): NUM,
    ("timing", "pre_ingest_seconds"): NUM,
    ("timing", "run_seconds"): NUM,
    ("timing", "completed_requests"): INT,
    ("timing", "requests_per_second"): NUM,
    ("timing", "latency_ns", "count"): INT,
    ("timing", "latency_ns", "min"): INT,
    ("timing", "latency_ns", "mean"): NUM,
    ("timing", "latency_ns", "p50"): INT,
    ("timing", "latency_ns", "p90"): INT,
    ("timing", "latency_ns", "p95"): INT,
    ("timing", "latency_ns", "p99"): INT,
    ("timing", "latency_ns", "max"): INT,
    ("timing", "phase_seconds", "signature"): NUM,
    ("timing", "phase_seconds", "selection"): NUM,
    ("timing", "phase_seconds", "nn"): NUM,
    ("timing", "phase_seconds", "verify"): NUM,
    ("timing", "peak_rss_bytes"): INT,
}


STATS_H = Path(__file__).resolve().parent.parent / "src" / "core" / "stats.h"


def search_counters(path=STATS_H):
    """Counter names of the kSearchCounters table, in table order.

    Exits non-zero when the file or the table cannot be read, or when a row
    of it does not parse, so the funnel check can never silently shrink.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        sys.exit(f"bench_schema_check: cannot read {path}: {e}")
    table = re.search(r"kSearchCounters\[\]\s*=\s*\{(.*?)\n\};", text,
                      re.S)
    if table is None:
        sys.exit(f"bench_schema_check: no kSearchCounters table in {path}")
    rows = table.group(1).count("{")
    names = re.findall(r'\{"(\w+)",\s*&SearchStats::\w+\}', table.group(1))
    if rows == 0 or len(names) != rows:
        sys.exit(f"bench_schema_check: parsed {len(names)} of {rows} "
                 f"kSearchCounters rows in {path}")
    return names


REQUIRED.update({("funnel", name): INT for name in search_counters()})


def lookup(doc, path):
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None, False
        node = node[key]
    return node, True


def check(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    for key_path, want in REQUIRED.items():
        value, found = lookup(doc, key_path)
        dotted = ".".join(key_path)
        if not found:
            errors.append(f"{path}: missing required key {dotted}")
            continue
        # bool is an int subclass in Python; keep them distinct.
        if want is INT and isinstance(value, bool):
            errors.append(f"{path}: {dotted} must be an integer, got bool")
        elif not isinstance(value, want):
            errors.append(
                f"{path}: {dotted} has type {type(value).__name__}, "
                f"expected {want}")
    if errors:
        return errors

    if doc["bench_schema_version"] != 1:
        errors.append(
            f"{path}: bench_schema_version is "
            f"{doc['bench_schema_version']}, expected 1")

    lat = doc["timing"]["latency_ns"]
    for field in ("count", "min", "mean", "p50", "p90", "p95", "p99", "max"):
        if lat[field] < 0:
            errors.append(f"{path}: timing.latency_ns.{field} is negative")
    for lo, hi in (("p50", "p95"), ("p95", "p99"), ("p99", "max")):
        if lat[lo] > lat[hi]:
            errors.append(
                f"{path}: latency {lo}={lat[lo]} > {hi}={lat[hi]}")
    if lat["min"] > lat["max"]:
        errors.append(f"{path}: latency min > max")

    for field in ("build_seconds", "ingest_seconds", "pre_ingest_seconds",
                  "run_seconds", "requests_per_second"):
        if doc["timing"][field] < 0:
            errors.append(f"{path}: timing.{field} is negative")
    if doc["timing"]["completed_requests"] < doc["requests"]["total"]:
        errors.append(f"{path}: completed_requests < requests.total")

    if not doc["requests"]["stream_hash"].startswith("0x"):
        errors.append(f"{path}: requests.stream_hash is not 0x-prefixed")
    if doc["requests"]["reference_sets"] != (
            doc["workload"]["requests"] * doc["workload"]["batch"]):
        errors.append(f"{path}: reference_sets != requests * batch")

    funnel = doc["funnel"]
    if sum(doc["per_shard_results"]) != funnel["results"]:
        errors.append(f"{path}: per_shard_results do not sum to "
                      f"funnel.results")
    if funnel["results"] != doc["results"]["pairs_per_round"]:
        errors.append(f"{path}: funnel.results != results.pairs_per_round")
    if doc["delta"]["sets"] != doc["workload"]["delta_sets"]:
        errors.append(f"{path}: delta.sets != workload.delta_sets")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = []
    for path in argv[1:]:
        failures.extend(check(path))
    for line in failures:
        print(line, file=sys.stderr)
    if not failures:
        print(f"ok: {len(argv) - 1} bench report(s) schema-valid")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
