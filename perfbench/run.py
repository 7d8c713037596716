"""Benchmark for qgf: run a workload's qgf commands and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports qgf from ``src/`` and writes its
inputs and outputs under ``.perfbench_work/``. Each workload runs in its own
child process (worker.py) with the BLAS thread count pinned. With
``--trace 0`` four more children only set up, two before and two after the
timed one, so ``setup_s`` is the median of five set-ups, and the end-to-end
metrics are printed; with ``--trace 1`` the per-layer metrics of a traced run
are. ``cycle_rel`` is one pass of the workload's commands timed in units of a
fixed reference computation run on the same core between commands
(reference.py), so that most of a shared host's speed drift cancels; the wall
time per cycle is printed beside it. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only if every command succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-desk", "train-long", "data")
END_TO_END = {"cycle_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# set-up-only children run before and after the timed one, so the median of
# the five set-ups samples the host's speed at both ends of the run
SETUPS_AROUND = 2
# a run's children get --seconds plus this long for set-ups and the last cycle's overrun
MARGIN_S = 140.0
SETUP_BUDGET_S = 30.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread was steadier than two and no slower at these array sizes
BLAS_THREADS = 1


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, tag: str,
          timeout: float) -> dict | None:
    """Run worker.py once; its result, or None if it failed or timed out."""
    name = f"{workload}-seed{seed}-{os.getpid()}-{tag}"
    workdir, out = WORK / name, WORK / f"{name}.json"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--workdir", str(workdir), "--out", str(out)]
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run([*cmd, "--spawned-at", repr(spawned_at)], env=child_env(),
                              cwd=ROOT, stdout=sys.stderr, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        print(f"{workload}: {mode} child timed out after {timeout:.0f}s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        print(f"{workload}: {mode} child exited {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(out.read_text())
    out.unlink()
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Spawn the children of one workload run and gather their figures."""
    deadline = time.monotonic() + seconds + MARGIN_S

    def child(mode: str, tag: str, cap: float) -> dict | None:
        return spawn(workload, seed, seconds, mode, tag, min(cap, deadline - time.monotonic()))

    if trace:
        main = child("trace", "trace", MARGIN_S + seconds)
        setups = [main]
    else:
        setups = [child("setup", f"setup{k}", SETUP_BUDGET_S) for k in range(SETUPS_AROUND)]
        main = child("run", "run", MARGIN_S + seconds)
        if main is None or None in setups:
            return None
        setups.append(main)
        setups += [child("setup", f"setup{k}", SETUP_BUDGET_S)
                   for k in range(SETUPS_AROUND, 2 * SETUPS_AROUND)]
    if main is None or None in setups:
        return None
    main["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    main["attempted"] = sum(s["attempted"] for s in setups)
    main["failed"] = sum(s["failed"] for s in setups)
    main["errors"] = [e for s in setups for e in s["errors"]]
    if trace:
        main["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in main["layers"].items()}
    else:
        main["metrics"] = {k: {"value": main[k], "unit": u} for k, u in END_TO_END.items()}
    return main


def report(workload: str, r: dict) -> None:
    """Human-readable lines: every metric by name and unit, plus what was checked."""
    print(f"{workload}: {r['cycles']} cycles, median cycle {r['cycle_s']:.3f} s "
          f"({r['cycle_rel']:.2f} reference units), "
          f"{r['failed']} of {r['attempted']} commands failed")
    for name, rate in sorted(r["rates"].items()):
        print(f"{workload}  {name:32s} {rate:14.4f} 1/s")
    print(f"{workload}  {'failed_ops_frac':32s} {r['failed'] / r['attempted']:14.4f} ratio")
    for name, m in r["metrics"].items():
        print(f"{workload}  {name:32s} {m['value']:14.4f} {m['unit']}")
    if "spans" in r:
        print(f"{workload}  traced cycle {r['traced_cycle_s']:.3f} s; spans in {r['spans']}")
    for name, share in r.get("shares", {}).items():
        if share:
            print(f"{workload}  share of gan.train_gan in {name}: {100 * share:.1f}%")
    for key, value in sorted(r["checks"].items()):
        print(f"{workload}  check {key} = {value}")
    for err in r["errors"]:
        print(f"{workload}  FAILED {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qgf" / "__init__.py").is_file():
        print(f"no qgf sources under {ROOT / 'src'}; run from a qgf checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if r is None:
            return 1
        results[name] = r
    numpy = next(iter(results.values()))["numpy"]
    print(f"env nproc={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
          f"python={platform.python_version()} numpy={numpy} trace={args.trace} "
          f"seconds={args.seconds} seed={args.seed}")
    for name, r in results.items():
        report(name, r)

    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
