#!/usr/bin/env python3
"""Builds the end-to-end monitor benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench); build output goes to stderr, so the last
line of standard output is the benchmark's JSON result. --self-test runs
every workload at a tiny size, traced and untraced, and checks the printed
metrics against BENCHMARK.json and the work-content fingerprint across
seeds. See README.md in this directory.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fattree_hot_faulty", "internet2_fresh", "internet2_churn"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    return os.path.join(target, "e2ebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("monitor sources (src/) not found next to the benchmark")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "e2e_bench")


def revision():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # No git metadata (an exported checkout): digest the sources instead.
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, files in sorted(os.walk(base)):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".cc", ".hpp", ".txt", ".py")):
                    with open(os.path.join(dirpath, f), "rb") as fh:
                        h.update(f.encode() + fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_binary(binary, args, capture):
    """Runs the benchmark binary; returns (returncode, stdout or None)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE if capture
                            else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run timed out")
    return proc.returncode, out


def bench_args(workload, seed, seconds, trace, rev, tiny=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--revision", rev]
    if tiny:
        args.append("--tiny")
    if trace:
        args += ["--spans-out", os.path.join(
            build_dir(), "spans_%s_%s.jsonl" % (workload, seed))]
    return args


def parse(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = None
    for line in lines:
        if line.startswith("FINGERPRINT "):
            fingerprint = json.loads(line[len("FINGERPRINT "):])
    return result, fingerprint


def self_test(binary, rev):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for w in WORKLOADS:
        runs = {}
        for seed, trace in ((1, 0), (2, 0), (1, 0), (1, 1)):
            rc, out = run_binary(binary, bench_args(w, seed, 1, trace, rev,
                                                    tiny=True), capture=True)
            label = "%s seed %d trace %d" % (w, seed, trace)
            check(rc == 0, label + ": exit code 0")
            try:
                result, fp = parse(out)
            except (ValueError, IndexError):
                check(False, label + ": JSON result on the last line")
                continue
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, label + ": output checks pass")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared[trace],
                  label + ": every declared metric printed with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  label + ": numeric metric values")
            check(fp is not None, label + ": fingerprint printed")
            runs.setdefault((seed, trace), []).append(fp)
        a, b = runs.get((1, 0), [None, None])[:2]
        other = runs.get((2, 0), [None])[0]
        if a and b and other:
            check(a == b, w + ": fingerprint identical across two runs of one seed")
            check(a["fixed"] == other["fixed"],
                  w + ": workload-fixed counts identical across seeds")
    print("self-test: %s" % ("PASS" if not problems else
                             "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    binary = build()
    rev = revision()
    if a.self_test:
        sys.exit(self_test(binary, rev))
    rc, _ = run_binary(binary, bench_args(a.workload, a.seed, a.seconds,
                                          a.trace, rev), capture=False)
    sys.exit(rc)


if __name__ == "__main__":
    main()
