#!/usr/bin/env python3
"""Build and run the cache-conscious layout benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload tree_replay --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (optimized, NDEBUG) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.

The perfbench binary prints each metric it computed as name -> value.
Metric names and units have one source, BENCHMARK.json: this script
attaches the units, fails on a metric it does not declare or a missing
end-to-end metric, and reports a declared per-layer metric of a layer
the workload does not run as 0.

--self-test runs every workload briefly, traced and untraced and with an
injected failure; it checks that the injected run reports failed
operations and that every declared per-layer metric is computed by some
workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tree_replay", "layout_native"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("configure failed")
    step = ["cmake", "--build", out, "--target", "perfbench", "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(os.path.dirname(binary), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-%d.jsonl" % (workload, seed))]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        fail("%s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing" % workload)
    return lines, json.loads(lines[-1])


def attach_units(result, trace):
    """Maps the binary's name -> value metrics onto the declared ones.

    Returns the result with every declared metric of the mode as
    {"value", "unit"}, and the names the binary computed itself.
    """
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if trace else end_to_end
    got = result["metrics"]
    extra = sorted(set(got) - set(declared))
    if extra:
        fail("metrics not declared in BENCHMARK.json: %s" % extra)
    missing = sorted(set(declared) - set(got))
    if missing and not trace:
        fail("end-to-end metrics missing: %s" % missing)
    result["metrics"] = {name: {"value": got.get(name, 0.0), "unit": unit}
                         for name, unit in declared.items()}
    return result, set(got)


def self_test(binary):
    computed = set()
    for workload in WORKLOADS:
        _, plain = run(binary, workload, 1, 1, 0)
        attach_units(plain, 0)
        _, traced = run(binary, workload, 1, 1, 1)
        computed |= attach_units(traced, 1)[1]
        _, injected = run(binary, workload, 1, 1, 0, ["--inject-failure"])
        ok = (plain["correct"] and plain["failed"] == 0 and
              traced["correct"] and traced["failed"] == 0 and
              not injected["correct"] and injected["failed"] > 0)
        print("self-test %-13s clean failed=%d, injected failed=%d of %d: %s"
              % (workload, plain["failed"], injected["failed"],
                 injected["attempted"], "ok" if ok else "FAIL"))
        if not ok:
            return 1
    never = sorted(set(declared_metrics()[1]) - computed)
    print("self-test per-layer metrics no workload computes: %s"
          % (never or "none"))
    return 1 if never else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    lines, result = run(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    result, _ = attach_units(result, args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
