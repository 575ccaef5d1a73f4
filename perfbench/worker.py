"""One benchmark process: import charpoly, build a workload's inputs, run
passes, and print one JSON line with what it measured.

Started by ``run.py``; not meant to be run by hand.  ``--passes 0`` only
times set-up (import plus input generation).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=1, help="max passes; 0 = set-up only")
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", choices=("off", "on", "alternate"), default="off")
    ap.add_argument("--spans-out", default="")
    ap.add_argument("--speedup", action="store_true",
                    help="time the single-worker baseline after the passes")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    import charpoly
    if Path(charpoly.__file__).resolve().parent != (src / "charpoly").resolve():
        print(f"charpoly imported from {charpoly.__file__}, not {src}", file=sys.stderr)
        return 3
    import workloads
    from spans import Tracer

    cases = workloads.build(args.workload, charpoly, args.seed)
    setup_s = time.perf_counter() - T_START

    out = {
        "setup_s": setup_s,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "charpoly": charpoly.__version__,
        },
        "charpoly_threads": charpoly.ensembles.worker_count(),
    }
    rec = workloads.Recorder()
    tracer = Tracer(charpoly)
    clock = workloads.HostClock() if args.passes else None
    pass_s, pass_ref, traced = [], [], []
    deadline = time.perf_counter() + args.seconds
    last = 0.0  # wall time of the latest pass, reference bursts included
    # start another pass only while it is expected to end within the budget
    while len(pass_s) < args.passes and (
        len(pass_s) < args.min_passes or time.perf_counter() + last <= deadline
    ):
        t0 = time.perf_counter()
        on = args.trace == "on" or (args.trace == "alternate" and len(pass_s) % 2 == 1)
        # traced passes count toward the gate, not toward route timings
        target = workloads.Recorder() if on else rec
        if on:
            tracer.install()
        try:
            dt, dref = workloads.run_pass(cases, target, clock)
        finally:
            tracer.uninstall()
        if on:
            for key in ("attempted", "failed", "known_failed"):
                setattr(rec, key, getattr(rec, key) + getattr(target, key))
            rec.unexpected += target.unexpected
        pass_s.append(dt)
        pass_ref.append(dref)
        traced.append(on)
        last = time.perf_counter() - t0

    if args.speedup:
        out["speedup"] = _speedup(workloads.mc_speedup_case(charpoly, args.seed))

    summary = tracer.summary()
    if args.spans_out and tracer.spans:
        tracer.write_spans(args.spans_out)
    out.update(
        pass_s=pass_s,
        traced=traced,
        attempted=rec.attempted,
        failed=rec.failed,
        known_failed=rec.known_failed,
        unexpected=rec.unexpected[:20],
        n_unexpected=len(rec.unexpected),
        times=rec.times,
        pass_ref=pass_ref,
        ref_s=clock.ref_s if clock else [],
        mc_work=rec.mc_work,
        mc_s=rec.mc_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        trace=summary,
        counts=tracer.counts,
    )
    print(json.dumps(out))
    return 0


def _speedup(run):
    """Median seconds of ``run()`` at one Monte Carlo worker and at the
    pinned worker count, alternating, three times each."""
    pinned = os.environ.get("CHARPOLY_THREADS", "")
    times = {"1": [], "pinned": []}
    try:
        for _ in range(3):
            for key, val in (("1", "1"), ("pinned", pinned)):
                os.environ["CHARPOLY_THREADS"] = val
                t0 = time.perf_counter()
                run()
                times[key].append(time.perf_counter() - t0)
    finally:
        os.environ["CHARPOLY_THREADS"] = pinned
    return {key: statistics.median(v) for key, v in times.items()}


if __name__ == "__main__":
    sys.exit(main())
