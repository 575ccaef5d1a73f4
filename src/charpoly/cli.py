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
import sys
import time
from dataclasses import asdict

from . import asymptotics as asym
from . import dualities as dual
from . import gap as gapmod
from . import painleve as pain
from .ensembles import ChargeConfiguration, Ginibre, TruncatedCUE, mc_moment
from .verify import RunReport, _result, run_verification_suite

_EXIT_OK, _EXIT_CHECK_FAILED, _EXIT_USAGE = 0, 1, 2


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError("--z expects 're' or 're,im'")


def _record(name, route, log_value, extra=None):
    rec = {"name": name, "route": route, "log_value": log_value}
    if log_value is not None and abs(log_value) < 700:
        rec["value"] = math.exp(log_value)
    if extra:
        rec.update(extra)
    return rec


def cmd_exact(args) -> RunReport:
    """Every exact route for one moment.  A route that refuses its domain
    (ValueError) is recorded as skipped with its reason; the routes that
    returned are checked against each other."""
    rep = RunReport("exact", vars_of(args), seed=args.seed)
    z, n, k = args.z, args.n, args.k
    gamma = args.gamma if args.gamma is not None else 2.0 * k
    if args.ensemble == "ginibre":
        routes = [("exact", lambda: dual.ginibre_moment_exact(n, k, z))] if k is not None else []
        routes += [
            ("gram", lambda: dual.ginibre_moment_toeplitz(n, gamma, z)),
            ("pv", lambda: dual.ginibre_moment_pv(n, gamma, z, args.tol)),
        ]
        tol = max(1e-6, 10 * args.tol)
    else:
        m = args.m
        if m is None:
            raise ValueError("--m is required for the truncated CUE")
        routes = [
            ("exact", lambda: dual.tcue_moment_exact(m, n, k, z, complex(z).conjugate())),
            ("exact-jue-factored", lambda: dual.tcue_moment_factored(m, n, k, abs(z))),
        ] if k is not None else []
        routes.append(("gram", lambda: dual.tcue_moment_toeplitz(m, n, gamma, z)))
        tol = 1e-8
    reasons = []
    for route, fn in routes:
        try:
            rep.outputs.append(_record("moment", route, fn()))
        except ValueError as exc:
            rep.outputs.append({"name": "moment", "route": route, "skipped": str(exc)})
            reasons.append(f"{route}: {exc}")
    if len(reasons) == len(routes):
        raise ValueError("every route refused (" + "; ".join(reasons) + ")")
    logs = [r["log_value"] for r in rep.outputs if "skipped" not in r]
    if len(logs) >= 2:
        rep.checks.append(asdict(_result("route_agreement", max(logs) - min(logs), tol)))
    return rep


def cmd_mc(args) -> RunReport:
    rep = RunReport("mc", vars_of(args), seed=args.seed)
    z = args.z
    gamma = args.gamma if args.gamma is not None else 2.0 * args.k
    charges = ChargeConfiguration((z,), (gamma,))
    if args.ensemble == "ginibre":
        spec, exact = Ginibre(args.n), dual.ginibre_moment_toeplitz(args.n, gamma, z)
    elif args.m is None:
        raise ValueError("--m is required for the truncated CUE")
    else:
        spec = TruncatedCUE(args.m, args.n)
        exact = dual.tcue_moment_toeplitz(args.m, args.n, gamma, z)
    est = mc_moment(spec, charges, args.samples, args.seed)
    rep.outputs.append(
        _record(
            "moment",
            "mc",
            est.log_value,
            {
                "mean_shifted": est.mean_shifted,
                "stderr_shifted": est.stderr_shifted,
                "log_shift": est.log_shift,
                "n_samples": est.n_samples,
                "ess": est.ess,
            },
        )
    )
    rep.outputs.append(_record("moment", "exact", exact))
    dev = abs(est.mean_shifted - math.exp(exact - est.log_shift))
    rep.checks.append(asdict(
        _result("mc_within_3_stderr", dev / max(est.stderr_shifted, 1e-300), 3.0)
    ))
    return rep


def _gap_ensemble(args):
    if args.ensemble == "gue":
        return gapmod.GUE(args.k)
    if args.ensemble == "lue":
        return gapmod.LUE(args.k, args.alpha)
    return gapmod.JUE(args.k, args.alpha, args.beta)


def cmd_gap(args) -> RunReport:
    rep = RunReport("gap", vars_of(args), seed=args.seed)
    ens = _gap_ensemble(args)
    cdf = gapmod.gap_cdf(ens, args.x)
    rep.outputs.append(_record("gap_cdf", "exact", math.log(cdf) if cdf > 0 else None,
                               {"value": cdf}))
    if args.ensemble == "lue":
        tail = gapmod.lue_tail(args.k, args.alpha, args.x)
        rep.outputs.append(
            _record("lue_tail", "exact", math.log(tail) if tail > 0 else None,
                    {"value": tail})
        )
    if args.oracle:
        if args.k > 3:
            raise SystemExit("--oracle supports k <= 3")
        o = gapmod.gap_oracle(ens, args.x)
        rep.outputs.append(_record("gap_cdf", "oracle", math.log(o) if o > 0 else None,
                                   {"value": o}))
        rep.checks.append(asdict(_result("cdf_vs_oracle", abs(cdf - o), 1e-7)))
    return rep


def cmd_painleve(args) -> RunReport:
    rep = RunReport("painleve", vars_of(args), seed=args.seed)
    if args.family == "p4":
        sol = pain.piv_solution(args.k)
        f = pain.piv_f(args.k, args.x, tol=args.tol)
        ref = (
            gapmod.gap_cdf(gapmod.GUE(int(args.k)), args.x)
            if abs(args.k - round(args.k)) < 1e-12 and args.k >= 1
            else None
        )
    elif args.family == "p5":
        fam = pain.PV(args.k, args.alpha)
        t0 = max(1.0, args.x)
        sol = pain.solve_span(
            fam, pain.init_from_gap(fam, t0), min(args.x, t0) * 0.9, max(args.x, t0) + 1.0,
            tol=args.tol,
        )
        f = pain.F_from_sigma(fam, sol, args.x)
        ref = gapmod.gap_cdf(gapmod.LUE(int(args.k), args.alpha), args.x)
    else:
        fam = pain.pvi_from_jue(args.k, args.alpha, args.beta)
        t0 = 0.5
        sol = pain.solve_span(
            fam, pain.init_from_gap(fam, t0), min(args.x, t0) * 0.9,
            min(max(args.x, t0) + 0.02, 0.99), tol=args.tol,
        )
        f = pain.F_from_sigma(fam, sol, args.x)
        ref = gapmod.gap_cdf(gapmod.JUE(int(args.k), args.alpha, args.beta), args.x)
    route = {"p4": "piv-ode", "p5": "pv-ode", "p6": "pvi-ode"}[args.family]
    rep.outputs.append(
        _record("F", route, math.log(f) if f > 0 else None,
                {"value": f, "max_residual": sol.max_residual, "nfev": sol.nfev})
    )
    if ref is not None:
        rep.outputs.append(_record("F", "gap-determinant", math.log(ref) if ref > 0 else None,
                                   {"value": ref}))
        rep.checks.append(
            asdict(_result("ode_vs_determinant", abs(f - ref), max(1e-6, 10 * args.tol)))
        )
    return rep


def cmd_asym(args) -> RunReport:
    rep = RunReport("asym", vars_of(args), seed=args.seed)
    z = args.z
    th = args.expansion
    if th == "interior":
        a = asym.bulk_interior(args.n, args.gamma, z)
        ex = dual.ginibre_moment_toeplitz(args.n, args.gamma, z)
    elif th in ("edge", "exterior"):
        a = (asym.ginibre_edge if th == "edge" else asym.ginibre_exterior)(args.n, args.k, z)
        ex = dual.ginibre_moment_toeplitz(args.n, 2.0 * args.k, z)
    elif th == "two-charge":
        a = asym.bulk_two_charge(args.n, args.k, int(args.k2), z, args.u1, args.u2)
        rn = math.sqrt(args.n)
        ex = dual.correlator_finiteN(
            dual.GinibreWeight(args.n),
            ChargeConfiguration(
                (z + args.u1 / rn, z + args.u2 / rn), (2.0 * args.k, 2.0 * args.k2)
            ),
        )
    elif th == "tcue-edge":
        a = asym.tcue_edge(args.n, args.kappa, args.k and int(args.k) or 1, args.u1)
        zz = 1.0 - args.u1 / args.n
        ex = dual.tcue_moment_exact(
            args.n + int(args.kappa), args.n, int(args.k or 1), zz, zz
        )
    else:
        raise SystemExit(f"unknown expansion {th}")
    rep.outputs.append(_record("moment", "asym", a))
    rep.outputs.append(_record("moment", "exact", ex))
    rep.outputs.append(
        _record("ratio", "exact/asym", ex - a, {"ratio": math.exp(ex - a)})
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
        parents=[output_opts],
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[output_opts], **kw)

    def common(sp, n=True):
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--tol", type=float, default=1e-7)
        if n:
            sp.add_argument("--n", type=int, required=True, help="matrix size N")

    sp = add_parser("exact", help="exact finite-N routes for one moment")
    common(sp)
    sp.add_argument("--ensemble", choices=["ginibre", "tcue"], default="ginibre")
    sp.add_argument("--m", type=int, help="ambient unitary size M (tcue)")
    order = sp.add_mutually_exclusive_group(required=True)
    order.add_argument("--k", type=int, help="integer moment order (exponent 2k)")
    order.add_argument("--gamma", type=float, help="real exponent gamma")
    sp.add_argument("--z", type=_parse_z, default=complex(0.0), help="'re' or 're,im'")
    sp.set_defaults(func=cmd_exact)

    sp = add_parser("mc", help="Monte Carlo moment estimate")
    common(sp)
    sp.add_argument("--ensemble", choices=["ginibre", "tcue"], default="ginibre")
    sp.add_argument("--m", type=int)
    order = sp.add_mutually_exclusive_group(required=True)
    order.add_argument("--k", type=int)
    order.add_argument("--gamma", type=float)
    sp.add_argument("--z", type=_parse_z, default=complex(0.0))
    sp.add_argument("--samples", type=int, default=20000)
    sp.set_defaults(func=cmd_mc)

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
        choices=["interior", "edge", "two-charge", "tcue-edge", "exterior"],
        required=True,
    )
    sp.add_argument("--k", type=float, default=1.0)
    sp.add_argument("--k2", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=2.0)
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
    except (FloatingPointError, pain.SolveError, pain.BranchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CHECK_FAILED
    if not report.wall_time:
        report.wall_time = time.time() - t0
    text = _to_csv(report) if args.csv else report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
