#!/usr/bin/env python3
"""Build the simulator from source and run the repository benchmark.

    python3 perfbench/run.py --workload pf-scale --seed 7 --seconds 20 --trace 0

Workloads: pf-scale, churn-mix (see BENCHMARK.json). With
--trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics.
The exit code is 0 only if the build succeeded and every simulated
statistic matched. Everything the run writes stays under the checkout:
the build in .bench_build/, caches and journals in .bench_work/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def quiet(cmd, env):
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            rel = os.path.relpath(f, ROOT)
            if rel.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(rel.encode() + b"\0")
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("no %s next to perfbench/: not a checkout of the simulator" % needed)
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    # git must not look for a repository above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--cache=disabled", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if build.returncode != 0:
        die("build failed")

    config = quiet(["ocamlfind", "ocamlopt", "-config"], env) or ""
    flambda = next((l.split(":", 1)[1].strip() for l in config.splitlines()
                    if l.startswith("flambda:")), "unknown")
    env["PERFBENCH_COMMIT"] = quiet(["git", "rev-parse", "HEAD"], env) or "unknown"
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    env["PERFBENCH_FLAMBDA"] = flambda

    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK_DIR]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark timed out")
    finally:
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
