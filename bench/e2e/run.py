#!/usr/bin/env python3
"""Build bench/e2e/e2e.exe from source and run one workload.

    python3 bench/e2e/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
metrics holds every end-to-end metric BENCHMARK.json lists (--trace 0) or
every per-layer metric (--trace 1). Scratch files live under .bench_work/
and are removed afterwards. Exits non-zero without a result line when the
directory is not a buildable checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXE = os.path.join(ROOT, "_build", "default", "bench", "e2e", "e2e.exe")
WORK = os.path.join(ROOT, ".bench_work")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %s" % args.workload)
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is not a source checkout (no %s)" % (ROOT, needed))

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bench/e2e/e2e.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    os.makedirs(WORK, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    report = os.path.join(WORK, "report-%s.json" % tag)
    trace = os.path.join(WORK, "trace-%s.json" % tag)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--json", report, "--workdir", WORK]
    if args.trace:
        cmd += ["--trace", trace]
    try:
        code = subprocess.run(cmd, cwd=ROOT).returncode
        with open(report) as f:
            w = json.load(f)["workloads"][args.workload]
    except (OSError, ValueError, KeyError) as e:
        fail("no report from e2e.exe: %s" % e)
    finally:
        for path in (report, trace):
            if os.path.exists(path):
                os.remove(path)
        if not os.listdir(WORK):
            shutil.rmtree(WORK)

    section, names = (("layers", bench["per_layer"]) if args.trace
                      else ("metrics", bench["end_to_end"]))
    metrics = {}
    for m in names:
        got = w.get(section, {}).get(m["name"])
        if got is None or got.get("value") is None:
            fail("%s: no value for %s (%s)" % (args.workload, m["name"],
                                             (got or {}).get("note", w.get("error", "missing"))))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = code == 0 and w.get("mismatches", 1) == 0
    print(json.dumps({"correct": correct, "attempted": w["ops"],
                      "failed": w["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
