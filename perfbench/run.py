#!/usr/bin/env python3
"""Scale benchmark entry point.

Builds the silkmoth library, silkmoth_cli and the benchmark driver (Release)
from the checkout's sources, runs one workload, and prints two lines: the
run's context (workload, why, seeds, environment, interaction map, notes)
and, last, the result object with the keys correct/attempted/failed/metrics.

    python3 perfbench/run.py --workload titles-eds-join [--seed N]
        [--seconds S] [--trace 0|1]

Run from the root of the checkout. Build outputs and run scratch go under
$CARGO_TARGET_DIR (default .bench_build). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# perfbench_driver gets twice the measured time plus this margin for
# building its inputs, set-up repetitions, answer checks and the traced run's
# serve probe.
DRIVER_MARGIN_S = 70


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, cwd, env):
    """Runs a build step with its output on stderr; fails the run on error."""
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no silkmoth source tree next to perfbench/ (CMakeLists.txt missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, ROOT, env)
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench_driver",
               "-j", str(os.cpu_count() or 1)], ROOT, env)
    with open(cache) as f:
        build_type = next((line.strip().split("=", 1)[1] for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        fail("refusing to measure a %r build; the benchmark needs Release" %
             build_type)
    driver = os.path.join(build_dir, "perfbench_driver")
    cli = os.path.join(build_dir, "silkmoth", "silkmoth_cli")
    for path in (driver, cli):
        if not os.access(path, os.X_OK):
            fail("build did not produce " + path)
    return driver, cli, build_type


def source_digest():
    """sha256 over the program's sources, standing in for the commit when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_driver(cmd, timeout_s):
    """Runs the driver in its own process group so that a timeout also stops
    the serve daemon it spawned; waits for every process to end."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("driver did not finish within %g s" % timeout_s)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("driver exited with status %d" % proc.returncode)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(config["workloads"]))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wl = config["workloads"][args.workload]
    seed = wl["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        fail("--seed must be non-negative")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    driver, cli, build_type = build(build_dir)

    work_dir = os.path.join(build_dir, "run-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    rel = lambda p: os.path.relpath(p, ROOT)  # Keeps the socket path short.
    cmd = [driver, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cli", rel(cli), "--work-dir", rel(work_dir)]
    for key, value in wl["params"].items():
        cmd += ["--param", "%s=%s" % (key, value)]
    digest = wl.get("digests", {}).get(str(seed))
    if digest:
        cmd += ["--param", "digest=" + digest]
    started = time.time()
    try:
        result = run_driver(cmd, 2 * args.seconds + DRIVER_MARGIN_S)
    finally:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        if os.path.isdir(work_dir):
            for name in os.listdir(work_dir):
                if name.startswith("trace-"):
                    os.replace(os.path.join(work_dir, name),
                               os.path.join(traces, name))
        shutil.rmtree(work_dir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail("metrics do not match BENCHMARK.json %s: missing %s, extra %s" % (
            section, sorted(set(want) - set(got)), sorted(set(got) - set(want))))

    env = dict(result.get("env", {}))
    env.update({"build_type": build_type, "commit": commit(),
                "source_digest": source_digest()})
    context = {
        "workload": args.workload,
        "why": wl["why"],
        "shape": wl["shape"],
        "operation": wl["operation"],
        "seed": seed,
        "default_seed": wl["default_seed"],
        "heldout_seed": wl["heldout_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl["params"],
        "limit_reasoning": wl["limit_reasoning"],
        "digest_checked": bool(digest),
        "driver_wall_s": round(time.time() - started, 3),
        "env": env,
        "notes": result.get("notes", []),
        "metric_aliases": config["metric_aliases"],
        "interaction_map": config["interaction_map"],
    }
    if args.trace:
        context["serve_probe"] = config["serve_probe"]
    print(json.dumps({"context": context}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
