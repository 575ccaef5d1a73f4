#!/usr/bin/env python3
"""Monte Carlo vs exact-duality comparison sweep for the Ginibre and
truncated-CUE moments, printed as one line per (model, k, z) row.  Each row
is one ``charpoly.verify.mc_versus_route`` call: its reference is the first
route of the row's model that accepts the point, which is the exact duality
at these integer k, and the row passes within ``MC_SIGMAS`` standard errors
of it.  The Ginibre rows shift their samples by the boundary expansion.

Usage:
    python scripts/mc_vs_exact.py [--samples 200000] [--seed 1]
"""

import argparse
import sys

from charpoly.asymptotics import ginibre_edge
from charpoly.ensembles import MC_SIGMAS, Ginibre, TruncatedCUE
from charpoly.verify import mc_versus_route


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    rows = [(Ginibre(8), k, z, ginibre_edge(8, float(k), z))
            for k in (1, 2) for z in (0.0, 0.5, 1.0)]
    rows += [(TruncatedCUE(8, 6), 1, 0.5, None), (TruncatedCUE(2, 1), 1, 0.0, None)]
    bad = 0
    for model, k, z, log_shift in rows:
        route, ref, est, seconds = mc_versus_route(model, 2.0 * k, z, args.samples, args.seed,
                                                   log_shift)
        nsig = est.sigmas(ref)
        ok = nsig <= MC_SIGMAS
        bad += not ok
        print(
            f"{model} k={k} z={z}: {route}_log={ref:+.6f} "
            f"mc_log={est.log_value:+.6f} dev={nsig:.2f} sigma "
            f"ess={est.ess:.0f}/{est.n_samples} "
            f"[{seconds:.1f}s] {'ok' if ok else f'OUTSIDE {MC_SIGMAS:g} SIGMA'}"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
