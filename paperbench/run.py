#!/usr/bin/env python3
"""Build and run the paper-regeneration benchmark.

Usage, from the repository root:

    python3 paperbench/run.py --workload sweep_dase --seed 1 --seconds 36 --trace 0

Configures and builds paperbench/ (which compiles the simulator library from
src/) as an optimized CMake build under $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs the benchmark binary.  Its set-up time is
sampled several times by launching the binary in --setup-only mode, and the
median replaces the single sample in the result.  Every line the binary prints
is passed through; the last stdout line is the result JSON.

--record-reference rewrites the stored reference digests of the given
workload and seed from this run (use it only on code whose simulated output
is known good).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_digests.txt")
SETUP_SAMPLES = 15
WORKLOADS = ("sweep_dase", "sweep_epoch", "fair_1m")


def log(msg):
    print(f"paperbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "paperbench-cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            # A failed configure must not leave a cache that skips it next time.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "paperbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        return None
    return os.path.join(build_dir, "paperbench")


def commit_of():
    """Git commit of the checkout, or a digest of the simulator sources when
    the checkout is not a git repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "paperbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "no-git:src-sha256-" + h.hexdigest()[:16]


def setup_sample(binary, common):
    t0 = time.monotonic_ns()
    out = subprocess.run([binary, *common, "--t0", str(t0), "--setup-only"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None
    return float(out.stdout.split()[1])


def record_reference(out_dir, workload, seed):
    produced = os.path.join(out_dir, f"digests-{workload}-seed{seed}.txt")
    with open(produced) as f:
        fresh = f.read().splitlines()
    kept = []
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            kept = [line for line in f.read().splitlines()
                    if line.split()[:2] != [workload, str(seed)]]
    lines = sorted(kept + fresh, key=lambda l: (l.split()[0], int(l.split()[1])))
    with open(REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")
    log(f"recorded {len(fresh)} reference digests for {workload} seed {seed}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_root)
    if binary is None:
        log("build failed")
        return 3
    out_dir = os.path.join(build_root, "paperbench-out")
    os.makedirs(out_dir, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", out_dir]
    common += ["--reference", REFERENCE, "--commit", commit_of()]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            s = setup_sample(binary, common)
            if s is None:
                log("set-up probe failed")
                return 3
            setups.append(s)

    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [binary, *common, "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--t0", str(t0)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode} and no result")
        return proc.returncode or 4
    result = json.loads(lines[-1])
    if not args.trace:
        # The run's own set-up sample joins the probes; report the median.
        setups.append(result["metrics"]["setup_s"]["value"])
        median = statistics.median(setups)
        result["metrics"]["setup_s"]["value"] = median
        lines = [f"metric {'setup_s':<32} {median!r:<22} s (median of {len(setups)})"
                 if line.startswith("metric setup_s ") else line
                 for line in lines]
        lines.insert(-1, "setup_s samples: " + " ".join(f"{s:.6f}" for s in setups))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    if args.record_reference and proc.returncode == 0:
        record_reference(out_dir, args.workload, args.seed)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
