"""avfp benchmark: run one workload in a fresh single-threaded process.

    python3 perfbench/run.py --workload fleet-train --seed 0 --seconds 20 --trace 0

Run from the repository root.  Workloads: fleet-train, fleet-score-unit,
fleet-score-hi, audits (see perfbench/README.md).  With --trace 0 the
last stdout line holds the end-to-end metrics; with --trace 1, the
per-layer metrics of a separate traced run.  The line before it carries
provenance (nproc, Python / numpy / scipy versions, git commit and dirty
state), the line before that the workload's named metrics and check
details.

Exits non-zero without a result when the package source (src/avfp) is
missing or the workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet-train", "fleet-score-unit", "fleet-score-hi", "audits")
# A part's last call may overrun its share of --seconds (one bound-audit
# instance takes 20-30 s), and set-up and the checks come on top.
TIMEOUT_FACTOR = 2
TIMEOUT_EXTRA_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _git(root: str, *args) -> str | None:
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True,
                             timeout=30, check=True, cwd=root, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(root: str, env: dict) -> dict:
    versions = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, timeout=60, env=env)
    numpy_v, scipy_v = (versions.stdout.split() + [None, None])[:2]
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_v,
        "scipy": scipy_v,
        "git_commit": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "avfp", "__init__.py")):
        print(f"run.py: no avfp source under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = src        # this checkout's avfp, nothing installed
    work = os.path.join(root, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    timeout = TIMEOUT_FACTOR * args.seconds + TIMEOUT_EXTRA_S
    # Its own session, so that a timeout also ends the process it starts
    # for the cross-process checkpoint check.
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"run.py: workload exceeded {timeout:g} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:     # another run is still using it
            pass
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"run.py: workload exited with {child.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: malformed workload result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"provenance": provenance(root, env)}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
