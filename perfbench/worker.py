"""One workload in one process: set up, run timed cycles, check outputs, report.

run.py starts it as

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|run|trace --workdir DIR --spawned-at T --out RESULT.json

``setup`` stops after set-up; ``run`` times cycles with no tracing; ``trace``
first runs one cycle that only probes memory, then alternates an untraced and
a traced cycle, so the difference between the two is the tracing overhead.
The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Runner:
    """Runs qgf commands in-process, timing only ``qgf.cli.main`` itself."""

    def __init__(self, qgf, reference):
        self.qgf = qgf
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, cmd, tracer=None) -> float:
        self.attempted += 1
        if tracer is not None:
            span = tracer.begin_command(cmd.subcommand, cmd.iterations)
        t0 = time.perf_counter()
        try:
            rc = self.qgf.cli.main(cmd.argv)
        except SystemExit as exc:  # argparse rejected the flags
            rc = exc.code
        except Exception:
            rc = "an exception:\n" + traceback.format_exc()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_command(span)
        try:
            if rc != 0:
                raise RuntimeError(f"exited with {rc}")
            if cmd.check is not None:
                cmd.check()
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{' '.join(cmd.argv[:3])}: {exc}")
        return wall

    def cycle(self, commands, tracer=None) -> dict:
        """Run the commands once each, timing the reference before and after each."""
        groups: dict[str, list[float]] = {}
        walls, refs = [], [self.reference()]
        for cmd in commands:
            walls.append(self.run(cmd, tracer))
            refs.append(self.reference())
            items_wall = groups.setdefault(cmd.group, [0, 0.0])
            items_wall[0] += cmd.items
            items_wall[1] += walls[-1]
        return {"wall": sum(walls), "rel": relative_time(walls, refs),
                "rates": {g: n / w for g, (n, w) in groups.items() if n}}


def relative_time(walls: list[float], refs: list[float]) -> float:
    """Commands' total time in units of the reference computation.

    ``refs`` has one more entry than ``walls``: the reference was timed before
    the first command and after each one. Each command's wall time is divided
    by the mean of the references on either side of it.
    """
    return sum(2.0 * wall / (before + after) for wall, before, after in zip(walls, refs, refs[1:]))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import numpy as np
    import qgf
    import qgf.cli

    if not Path(qgf.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported qgf from {qgf.__file__}, not from {ROOT / 'src'}")
    from reference import Reference
    from spans import Tracer, layer_metrics, train_shares
    from workloads import WORKLOADS

    args.workdir.mkdir(parents=True)
    state: dict = {}
    plan = WORKLOADS[args.workload](qgf, args.workdir, args.seed, state)
    runner = Runner(qgf, Reference())
    for cmd in plan.setup:
        runner.run(cmd)
    result: dict = {"setup_s": time.monotonic() - args.spawned_at}

    if args.mode != "setup":
        if args.mode == "trace":
            probe = Tracer(probe_rss=True)  # its times are inflated by the probing; not reported
            probe.install(qgf)
            try:
                runner.cycle(plan.cycle, probe)
            finally:
                probe.restore()
        deadline = time.monotonic() + args.seconds
        plain, traced = [], []
        tracer = Tracer()
        while True:
            plain.append(runner.cycle(plan.cycle))
            if args.mode == "trace":
                tracer.install(qgf)
                try:
                    traced.append(runner.cycle(plan.cycle, tracer))
                finally:
                    tracer.restore()
            if time.monotonic() >= deadline:
                break
        cycle_s = statistics.median(c["wall"] for c in plain)
        cycle_rel = statistics.median(c["rel"] for c in plain)
        rates = {g: statistics.median(c["rates"][g] for c in plain) for g in plain[0]["rates"]}
        result.update(cycles=len(plain), cycle_s=cycle_s, cycle_rel=cycle_rel, rates=rates)
        if args.mode == "trace":
            traced_s = statistics.median(c["wall"] for c in traced)
            traced_rel = statistics.median(c["rel"] for c in traced)
            layers = layer_metrics(tracer, probe.rss_delta)
            layers["trace.overhead_pct"] = (100.0 * (traced_rel - cycle_rel) / cycle_rel, "%")
            layers["src_lines"] = (float(src_lines()), "lines")
            spans_path = args.out.with_suffix(".spans.jsonl")
            tracer.write(spans_path)
            result.update(layers=layers, traced_cycle_s=traced_s, shares=train_shares(tracer),
                          spans=str(spans_path))

    result.update(
        attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checks=state,
        numpy=np.__version__)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
