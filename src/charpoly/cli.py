"""Command-line front end: JSON (or CSV) reports for the exact routes,
Monte Carlo, gap probabilities, Painleve reconstructions, asymptotic
expansions, the lemniscate partition function, and the verification suite.

Exit codes: 0 all checks passed, 1 at least one check failed or a numerical
refusal (FloatingPointError, SolveError, BranchError), 2 usage error or an
input outside every route's domain (ValueError).
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict

from . import asymptotics as asym
from . import dualities as dual
from . import gap as gapmod
from . import painleve as pain
from .ensembles import MC_SIGMAS, Ginibre, TruncatedCUE
from .verify import (EXPANSIONS, RunReport, _result, mc_versus_route, moment_routes,
                     run_verification_suite)

_EXIT_OK, _EXIT_CHECK_FAILED, _EXIT_USAGE = 0, 1, 2


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError("--z expects 're' or 're,im'")
    return complex(*map(_finite_float, parts))


def _record(name, route, log_value, extra=None):
    rec = {"name": name, "route": route, "log_value": log_value}
    if log_value is not None and abs(log_value) < 700:
        rec["value"] = math.exp(log_value)
    if extra:
        rec.update(extra)
    return rec


def _model_and_gamma(args):
    """The matrix model and the exponent (--gamma, else 2 --k) of `exact` and `mc`."""
    if args.ensemble == "tcue" and args.m is None:
        raise ValueError("--m is required for the truncated CUE")
    if args.ensemble == "ginibre" and args.m is not None:
        raise ValueError("--m applies to the truncated CUE only")
    model = Ginibre(args.n) if args.ensemble == "ginibre" else TruncatedCUE(args.m, args.n)
    return model, args.gamma if args.gamma is not None else 2.0 * args.k


def cmd_exact(args) -> RunReport:
    """Every exact route for one moment.  A route that refuses its domain
    (ValueError) is recorded as skipped with its reason; the routes that
    returned are checked against each other."""
    rep = RunReport("exact", vars_of(args), seed=args.seed)
    for route, fn in moment_routes(*_model_and_gamma(args), args.z):
        try:
            rep.outputs.append(_record("moment", route, fn()))
        except ValueError as exc:
            rep.outputs.append({"name": "moment", "route": route, "skipped": str(exc)})
    logs = [r["log_value"] for r in rep.outputs if "skipped" not in r]
    if not logs:
        raise ValueError("every route refused (" + "; ".join(
            f"{r['route']}: {r['skipped']}" for r in rep.outputs) + ")")
    if len(logs) >= 2:
        rep.checks.append(asdict(_result("route_agreement", max(logs) - min(logs), 1e-8)))
    return rep


def cmd_mc(args) -> RunReport:
    rep = RunReport("mc", vars_of(args), seed=args.seed)
    route, ref, est, _ = mc_versus_route(*_model_and_gamma(args), args.z, args.samples,
                                         args.seed)
    diagnostics = ("mean_shifted", "stderr_shifted", "log_shift", "n_samples", "ess")
    rep.outputs.append(
        _record("moment", "mc", est.log_value, {key: getattr(est, key) for key in diagnostics})
    )
    rep.outputs.append(_record("moment", route, ref))
    rep.checks.append(asdict(_result("mc_within_3_stderr", est.sigmas(ref), MC_SIGMAS)))
    return rep


def _gap_ensemble(args):
    if args.ensemble == "gue":
        return gapmod.GUE(args.k)
    if args.ensemble == "lue":
        return gapmod.LUE(args.k, args.alpha)
    return gapmod.JUE(args.k, args.alpha, args.beta)


def _probability_record(name, route, log_p):
    """ln P as log_value (null only for P = 0), so an underflowing P keeps its log."""
    return _record(name, route, log_p if log_p > -math.inf else None, {"value": math.exp(log_p)})


def cmd_gap(args) -> RunReport:
    rep = RunReport("gap", vars_of(args), seed=args.seed)
    ens = _gap_ensemble(args)
    log_cdf = gapmod.log_gap_cdf(ens, args.x)
    rep.outputs.append(_probability_record("gap_cdf", "exact", log_cdf))
    if args.ensemble == "lue":
        rep.outputs.append(_probability_record(
            "lue_tail", "exact", gapmod.log_lue_tail(args.k, args.alpha, args.x)))
    if args.oracle:
        o = gapmod.gap_oracle(ens, args.x)
        rep.outputs.append(_record("gap_cdf", "oracle", math.log(o) if o > 0 else None,
                                   {"value": o}))
        rep.checks.append(asdict(_result("cdf_vs_oracle", abs(math.exp(log_cdf) - o), 1e-7)))
    return rep


def cmd_painleve(args) -> RunReport:
    rep = RunReport("painleve", vars_of(args), seed=args.seed)
    if args.family == "p4":
        fam, t0 = pain.PIV(args.k), None  # one boundary-value solve, no seed point
        sol = pain.piv_solution(args.k)
        log_f = pain.piv_log_f(args.k, args.x, tol=args.tol)
    else:  # seeded at t0 = x/2 < x, so F is transported, not read at its seed
        fam = (pain.PV(args.k, args.alpha) if args.family == "p5"
               else pain.PVI(args.k, args.alpha, args.beta))
        t0 = 0.5 * args.x
        sol = pain.solve_span(fam, pain.init_from_gap(fam, t0), t0, args.x, tol=args.tol)
        log_f = sol.log_f(args.x)
    try:
        ens = fam.ensemble()
    except ValueError:  # PIV at a non-integer k has no gap ensemble
        ens = None
    route = {"p4": "piv-ode", "p5": "pv-ode", "p6": "pvi-ode"}[args.family]
    rep.outputs.append({**_probability_record("F", route, log_f),
                        "max_residual": sol.max_residual, "nfev": sol.nfev, "t0": t0})
    if ens is not None:  # compared in ln F, so that a tiny F keeps its relative error
        log_ref = gapmod.log_gap_cdf(ens, args.x)
        rep.outputs.append(_probability_record("F", "gap-determinant", log_ref))
        rep.checks.append(asdict(_result("ode_vs_determinant", abs(log_f - log_ref),
                                         max(1e-6, 10 * args.tol))))
    return rep


def cmd_asym(args) -> RunReport:
    rep = RunReport("asym", vars_of(args), seed=args.seed)
    expand, reference = EXPANSIONS[args.expansion]
    a = expand(args)
    route, ref = reference(args)
    rep.outputs.append(_record("moment", "asym", a))
    rep.outputs.append(_record("moment", route, ref))
    rep.outputs.append(
        _record("ratio", f"{route}/asym", ref - a, {"ratio": math.exp(ref - a)})
    )
    return rep


def cmd_lemniscate(args) -> RunReport:
    rep = RunReport("lemniscate", vars_of(args), seed=args.seed)
    lp = dual.lemniscate_partition(args.n, args.d, args.t)
    rep.outputs.append(_record("log_partition", "exact", lp))
    if args.regime:
        a = asym.lemniscate_asym(args.n, args.d, args.t, args.regime)
        route = "asym (conjectural)" if args.regime == "critical" else "asym"
        rep.outputs.append(_record("log_partition_ratio", route, a))
        rep.outputs.append(
            _record("kappa_d", "exact", None, {"value": asym.lemniscate_kappa(args.d)})
        )
    return rep


def cmd_verify(args) -> RunReport:
    return run_verification_suite(args.level, args.seed)


def vars_of(args) -> dict:
    skip = {"func", "out", "csv"}
    out = {}
    for key, val in vars(args).items():
        if key in skip or val is None:
            continue
        out[key] = str(val) if isinstance(val, complex) else val
    return out


def _to_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["section", "name", "route_or_detail", "value", "log_value_or_obs", "extra"])
    for rec in report.outputs:
        writer.writerow(
            [
                "output",
                rec.get("name", ""),
                rec.get("route", ""),
                rec.get("value", ""),
                rec.get("log_value", ""),
                json.dumps({k: v for k, v in rec.items()
                            if k not in ("name", "route", "value", "log_value")}),
            ]
        )
    for chk in report.checks:
        writer.writerow(
            [
                "check",
                chk["name"],
                "PASS" if chk["passed"] else "FAIL",
                chk["observed"],
                chk["tolerance"],
                chk.get("detail", ""),
            ]
        )
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    output_opts = argparse.ArgumentParser(add_help=False)
    output_opts.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    output_opts.add_argument("--out", metavar="FILE", help="write the report to FILE")
    p = argparse.ArgumentParser(
        prog="charpoly",
        description="Moments of characteristic polynomials of non-Hermitian "
        "random matrices: exact dualities, Painleve transport, Monte Carlo, "
        "and asymptotic expansions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[output_opts], **kw)

    def common(sp, n=True):
        sp.add_argument("--seed", type=int, default=1)
        if n:
            sp.add_argument("--n", type=int, required=True, help="matrix size N")

    for name, func, text in (("exact", cmd_exact, "exact finite-N routes for one moment"),
                             ("mc", cmd_mc, "Monte Carlo moment estimate")):
        sp = add_parser(name, help=text)
        common(sp)
        sp.add_argument("--ensemble", choices=["ginibre", "tcue"], default="ginibre")
        sp.add_argument("--m", type=int, help="ambient unitary size M (tcue)")
        order = sp.add_mutually_exclusive_group(required=True)
        order.add_argument("--k", type=int, help="integer moment order (exponent 2k)")
        order.add_argument("--gamma", type=_finite_float, help="real exponent gamma")
        sp.add_argument("--z", type=_parse_z, default=complex(0.0), help="'re' or 're,im'")
        sp.set_defaults(func=func)
    sp.add_argument("--samples", type=int, default=20000)  # mc only

    sp = add_parser("gap", help="extreme-eigenvalue probabilities")
    common(sp, n=False)
    sp.add_argument("--ensemble", choices=["gue", "lue", "jue"], required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--oracle", action="store_true", help="cross-check by quadrature")
    sp.set_defaults(func=cmd_gap)

    sp = add_parser("painleve", help="sigma-form solves and F reconstruction")
    common(sp, n=False)
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--family", choices=["p4", "p5", "p6"], required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--x", type=float, required=True)
    sp.set_defaults(func=cmd_painleve)

    sp = add_parser("asym", help="asymptotic expansion vs exact route")
    common(sp)
    sp.add_argument(
        "--expansion",
        choices=list(EXPANSIONS),
        required=True,
    )
    sp.add_argument("--k", type=float, default=1.0)
    sp.add_argument("--k2", type=float, default=1.0)
    sp.add_argument("--gamma", type=_finite_float, default=2.0)
    sp.add_argument("--kappa", type=float, default=2.0)
    sp.add_argument("--z", type=_parse_z, default=complex(0.0))
    sp.add_argument("--u1", type=float, default=0.0)
    sp.add_argument("--u2", type=float, default=1.0)
    sp.set_defaults(func=cmd_asym)

    sp = add_parser("lemniscate", help="lemniscate partition function")
    common(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--regime", choices=["sub", "critical", "super"])
    sp.set_defaults(func=cmd_lemniscate)

    sp = add_parser("verify", help="run the cross-route verification suite")
    sp.add_argument("--level", choices=["quick", "full"], default="quick")
    sp.add_argument("--seed", type=int, default=1)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (FloatingPointError, OverflowError, pain.SolveError, pain.BranchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CHECK_FAILED
    if not report.wall_time:
        report.wall_time = time.time() - t0
    text = _to_csv(report) if args.csv else report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left; keep the exit code, not a traceback
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
