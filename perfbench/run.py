#!/usr/bin/env python3
"""Builds and runs the open-loop pool-serving benchmark.

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 40 --trace 0

Run from the repository root. The first run builds the `perfbench`
package (release profile) into $CARGO_TARGET_DIR, `.bench_build` when
unset. `--trace 0` prints the end-to-end metrics; `--trace 1` first runs
the untraced binary's steady phase for the reference p50, then the traced
binary for the per-layer metrics (spans go to
`<target dir>/perfbench/spans-<workload>-<seed>.tsv`). The last line of
standard output is the result object; the exit code is non-zero when the
build fails, an answer is incorrect or the run is invalid.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
# Share of --seconds the traced mode gives its untraced reference run.
REFERENCE_SHARE = 0.4


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"build failed: {err}")
        return False
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
    return done.returncode == 0


def source_rev():
    """The git revision when there is one, else a hash of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    skip = {".git", ".bench_build", "target"}
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if d not in skip)
        for name in sorted(files):
            if name.endswith((".rs", ".toml", ".lock", ".py")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run(binary, args):
    """Runs one benchmark binary, echoing its output; returns (code, last line)."""
    cmd = [os.path.join(target_dir(), "release", binary)] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{binary} did not finish: {err}")
        return 1, ""
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    return done.returncode, (lines[-1] if lines else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not build():
        return 1
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--meta", f"rustc={rustc_version()}", "--meta", f"rev={source_rev()}"]
    if opts.trace == 0:
        code, last = run("perfbench", common + ["--seconds", str(opts.seconds)])
        if last:
            print(last, flush=True)
        return code

    reference_seconds = opts.seconds * REFERENCE_SHARE
    code, last = run("perfbench", common + ["--seconds", str(reference_seconds), "--steady-only"])
    if code != 0 or not last.startswith("{"):
        log("the untraced reference run failed")
        return code or 1
    untraced_p50 = json.loads(last)["metrics"]["p50_us"]["value"]
    print(f"REFERENCE untraced p50_us={untraced_p50}", flush=True)
    spans = os.path.join(target_dir(), "perfbench",
                         f"spans-{opts.workload}-{opts.seed}.tsv")
    code, last = run("perfbench-trace", common + [
        "--seconds", str(opts.seconds - reference_seconds),
        "--untraced-p50-us", str(untraced_p50),
        "--spans-out", spans,
    ])
    if last:
        print(last, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
