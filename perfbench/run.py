"""charpoly benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see BENCHMARK.json and
workloads.py): ``exact_sweep``, ``monte_carlo``, ``painleve_edge``.  Every
workload is a closed loop with one caller: a pass evaluates each seeded case
in turn and checks it against an independent route.

Processes.  Set-up (import plus input generation) is timed in four fresh
processes that do nothing else, two before and two after the measuring
ones, and again in each measuring process; the median is ``setup_s``.
``exact_sweep`` and ``monte_carlo`` then run passes in one process for
about ``--seconds``.  ``painleve_edge`` runs each pass in a fresh process,
so that the Painleve IV shooting caches start cold every time; it runs at
least three passes, 45-65 s in all.  Each process is pinned to
CHARPOLY_THREADS = min(2, cores) Monte Carlo workers and one BLAS thread.

``--trace 0`` prints the end-to-end metrics: set-up time, pass time in
units of a reference kernel's time, peak resident memory, and the share of
evaluations that passed their check.  The speed a shared host gives this
code drifts by up to half, within seconds and between minutes (README.md,
"Spread"), so a pass time in seconds does not repeat from run to run.  A
pass therefore runs its cases in segments of at least 0.1 s, each followed
by a burst of a fixed kernel that calls no charpoly code
(workloads.reference_kernel).  ``wall_ref`` sums each segment's time over
the kernel's median time in the bursts on either side of it, and takes the
median of that over the untraced passes.  The pass time in seconds and the
kernel's time are printed with the run environment.

``--trace 1`` alternates untraced and traced passes and prints per-layer
metrics from spans recorded at the boundaries of the ``charpoly`` modules
(spans.py), plus the tracing overhead.  Spans are written to ``.perfbench/``
under the checkout.

The last line of output is one JSON object with keys correct, attempted,
failed and metrics.  ``correct`` is false when any evaluation outside the
known defects listed in workloads.py fails; known-defect failures still
count in ``failed``.  The script exits non-zero, printing no result, when
the checkout has no ``src/charpoly`` or a measuring process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_sweep", "monte_carlo", "painleve_edge")
ROUTES = ("ginibre_moment_exact", "ginibre_moment_toeplitz", "ginibre_moment_pv",
          "tcue_moment_exact", "tcue_moment_toeplitz", "hciz_ratio",
          "lemniscate_partition", "correlator_finiteN")
# set-up-only processes, half before and half after the measuring ones, so
# that setup_s samples the host's speed at both ends of the run
SETUP_PROBES = 4
# painleve_edge passes take 10-16 s on a 2-core shared host, plus a fifth
# of that in reference-kernel bursts, each pass in a fresh process
FRESH_PASSES = 3
BUDGET_S = 170.0  # every run must end within 180 s


def _pinned_env():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(
        CHARPOLY_THREADS=str(min(2, cores or 1)),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env, cores


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Runner:
    def __init__(self, args):
        self.args = args
        self.env, self.cores = _pinned_env()
        self.t0 = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.t0

    def child(self, *extra):
        """Run one worker process to completion and return its JSON line."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), *extra]
        timeout = BUDGET_S - self.elapsed()
        if timeout <= 0:
            raise RuntimeError("time budget exhausted")
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def measure(self):
        a = self.args
        tracing = a.trace == 1
        spans_dir = ROOT / ".perfbench"
        if tracing:
            spans_dir.mkdir(exist_ok=True)
        probes = [self.child("--passes", "0") for _ in range(SETUP_PROBES // 2)]
        runs = []
        if a.workload == "painleve_edge":
            # one pass per process, at least FRESH_PASSES of them; alternate
            # untraced and traced passes when tracing
            start, last = self.elapsed(), 0.0
            while len(runs) < FRESH_PASSES or self.elapsed() - start + last <= a.seconds:
                t = self.elapsed()
                mode = "on" if tracing and len(runs) % 2 == 1 else "off"
                extra = ["--spans-out", str(spans_dir / f"spans_{a.workload}_{a.seed}_{len(runs)}.csv")]
                runs.append(self.child("--passes", "1", "--trace", mode,
                                       *(extra if mode == "on" else [])))
                last = self.elapsed() - t
        else:
            extra = ["--passes", "100000", "--seconds", str(a.seconds)]
            if tracing:
                extra += ["--trace", "alternate", "--min-passes", "3",
                          "--spans-out", str(spans_dir / f"spans_{a.workload}_{a.seed}.csv")]
                if a.workload == "monte_carlo":
                    extra.append("--speedup")
            runs.append(self.child(*extra))
        probes += [self.child("--passes", "0") for _ in range(SETUP_PROBES - len(probes))]
        return probes, runs


def _median(vals):
    return statistics.median(vals) if vals else 0.0


def _untraced(r, key="pass_s"):
    return [t for t, on in zip(r[key], r["traced"]) if not on]


def end_to_end(probes, runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "setup_s": (_median([r["setup_s"] for r in probes + runs]), "s"),
        "wall_ref": (_median([t for r in runs for t in _untraced(r, "pass_ref")]), "x"),
        "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
        "pass_frac": (1.0 - failed / attempted, "frac"),
    }


def per_layer(runs):
    traced = [t for r in runs for t, on in zip(r["pass_s"], r["traced"]) if on]
    untraced = [t for r in runs for t, on in zip(r["pass_s"], r["traced"]) if not on]
    n_tr = max(len(traced), 1)
    names, layers, counts, times = {}, {}, {}, {}
    for r in runs:
        for key, row in r["trace"]["names"].items():
            acc = names.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
            for f in ("calls", "busy_s", "self_s", "durations"):
                acc[f] += row[f]
        for key, row in r["trace"]["layers"].items():
            acc = layers.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for f in ("calls", "busy_s", "self_s"):
                acc[f] += row[f]
        for key, val in r["counts"].items():
            counts[key] = counts.get(key, 0) + val
        for key, vals in r["times"].items():
            times.setdefault(key, []).extend(vals)

    def name(key, field):
        return names.get(key, {}).get(field, 0.0) / n_tr

    def p50_ms(key):
        return _median(names.get(key, {}).get("durations", [])) * 1e3

    def row_ms(key, per=1.0):
        return _median(times.get(key, [])) * 1e3 / per

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (layers.get(layer, {}).get("calls", 0) / n_tr, "count")
        m[f"{layer}.self_s"] = (layers.get(layer, {}).get("self_s", 0.0) / n_tr, "s")
    for route in ROUTES:
        key = f"dualities.{route}"
        m[f"{key}.calls"] = (name(key, "calls"), "count")
        m[f"{key}.self_s"] = (name(key, "self_s"), "s")
        m[f"{key}.p50_ms"] = (p50_ms(key), "ms")
    speed = [r["speedup"] for r in runs if "speedup" in r]
    mc_s = sum(r["mc_s"] for r in runs)
    solves = counts.get("ode_solves", 0)
    m.update({
        "gap.gap_cdf.self_s": (name("gap.gap_cdf", "self_s"), "s"),
        "gap.log_lue_tail.self_s": (name("gap.log_lue_tail", "self_s"), "s"),
        "gap.gap_oracle.busy_s": (name("gap.gap_oracle", "busy_s"), "s"),
        "linalg.logdet_batch.matrices": (counts.get("logdet_matrices", 0) / n_tr, "count"),
        "linalg.logdet_batch.busy_thread_s": (name("linalg.logdet_batch", "busy_s"), "s"),
        "ensembles.mc_moment.samples": (counts.get("mc_samples", 0) / n_tr, "count"),
        "ensembles.mc_moment.self_s": (name("ensembles.mc_moment", "self_s"), "s"),
        "ensembles.mc_samples_per_s": (sum(r["mc_work"] for r in runs) / mc_s if mc_s else 0.0, "1/s"),
        "ensembles.worker_speedup": (speed[0]["1"] / speed[0]["pinned"] if speed else 0.0, "x"),
        "ensembles.mc_gin8_200k.s_1w": (speed[0]["1"] if speed else 0.0, "s"),
        "ensembles.mc_gin8_200k.s_pinned": (speed[0]["pinned"] if speed else 0.0, "s"),
        "ensembles.mc_gin8.ms_per_1k": (row_ms("mc_gin8", 50.0), "ms"),
        "ensembles.mc_gin64.ms_per_1k": (row_ms("mc_gin64", 4.096), "ms"),
        "ensembles.mc_tcue86.ms_per_1k": (row_ms("mc_tcue86", 50.0), "ms"),
        "ensembles.mc_tcue648.ms_per_1k": (row_ms("mc_tcue648", 2.048), "ms"),
        "dualities.ginibre_moment_toeplitz.n32_p50_ms": (row_ms("toeplitz_n32"), "ms"),
        "painleve.ode_solves": (solves / n_tr, "count"),
        "painleve.ode_nfev": (counts.get("ode_nfev", 0) / n_tr, "count"),
        "painleve.ode_early_stop_frac": (counts.get("ode_event_stops", 0) / solves if solves else 0.0, "frac"),
        "painleve.piv_f.cold_s": (row_ms("piv_f_cold") / 1e3, "s"),
        "painleve.piv_f.warm_ms": (row_ms("piv_f_warm"), "ms"),
        "painleve.solve_span.self_s": (name("painleve.solve_span", "self_s"), "s"),
        "asymptotics.edge_f_km.busy_s": (name("asymptotics.edge_f_km", "busy_s"), "s"),
        "asymptotics.edge_f_km.k3_p50_ms": (row_ms("edge_f_km_k3"), "ms"),
        "asymptotics.edge_f_det.p50_ms": (p50_ms("asymptotics.edge_f_det"), "ms"),
        "asymptotics.edge_f_det.k3_p50_ms": (row_ms("edge_f_det_k3"), "ms"),
        "asymptotics.ginibre_edge.calls": (name("asymptotics.ginibre_edge", "calls"), "count"),
        "oracles.busy_s": (layers.get("oracles", {}).get("busy_s", 0.0) / n_tr, "s"),
        "oracles.quad_calls": (counts.get("oracle_quad_calls", 0) / n_tr, "count"),
        "trace.overhead_frac": (_median(traced) / _median(untraced) - 1.0 if traced and untraced else 0.0, "frac"),
    })
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "charpoly" / "__init__.py").is_file():
        print(f"no charpoly sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        probes, runs = runner.measure()
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(runs) if args.trace else end_to_end(probes, runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    n_unexpected = sum(r["n_unexpected"] for r in runs)
    print(json.dumps({"env": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": runner.cores,
        "charpoly_threads": runs[0]["charpoly_threads"],
        "blas_threads": 1,
        "versions": runs[0]["versions"],
        "processes": len(probes) + len(runs),
        "passes": sum(len(r["pass_s"]) for r in runs),
        "known_failed": sum(r["known_failed"] for r in runs),
        "unexpected_failures": [u for r in runs for u in r["unexpected"]],
        "pass_s_median": _median([t for r in runs for t in _untraced(r)]),
        "ref_ms_median": _median([t for r in runs for t in r["ref_s"]]) * 1e3,
        "elapsed_s": runner.elapsed(),
    }}))
    print(json.dumps({
        "correct": attempted >= 1 and n_unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
