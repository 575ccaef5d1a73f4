#!/usr/bin/env python3
"""Monte Carlo vs exact-duality comparison sweep for the Ginibre and
truncated-CUE moments, printed as one line per parameter point.

Usage:
    python scripts/mc_vs_exact.py [--samples 200000] [--seed 1]
"""

import argparse
import math
import sys
import time

from charpoly.asymptotics import ginibre_edge
from charpoly.dualities import ginibre_moment_exact, tcue_moment_exact
from charpoly.ensembles import ChargeConfiguration, Ginibre, TruncatedCUE, mc_moment


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bad = 0
    for k in (1, 2):
        for z in (0.0, 0.5, 1.0):
            t0 = time.time()
            exact = ginibre_moment_exact(8, k, z)
            est = mc_moment(
                Ginibre(8),
                ChargeConfiguration((z,), (2.0 * k,)),
                args.samples,
                seed=args.seed,
                log_shift=ginibre_edge(8, float(k), z),
            )
            dev = abs(est.mean_shifted - math.exp(exact - est.log_shift))
            nsig = dev / max(est.stderr_shifted, 1e-300)
            ok = nsig <= 3.0
            bad += not ok
            print(
                f"ginibre N=8 k={k} z={z}: exact_log={exact:+.6f} "
                f"mc_log={est.log_value:+.6f} dev={nsig:.2f} sigma "
                f"ess={est.ess:.0f}/{est.n_samples} "
                f"[{time.time()-t0:.1f}s] {'ok' if ok else 'OUTSIDE 3 SIGMA'}"
            )
    for m, n, k, z in ((8, 6, 1, 0.5), (2, 1, 1, 0.0)):
        exact = tcue_moment_exact(m, n, k, z, z)
        est = mc_moment(
            TruncatedCUE(m, n), ChargeConfiguration((z,), (2.0 * k,)),
            args.samples, seed=args.seed,
        )
        nsig = abs(est.mean_shifted - math.exp(exact)) / max(est.stderr_shifted, 1e-300)
        ok = nsig <= 3.0
        bad += not ok
        print(
            f"tcue M={m} N={n} k={k} z={z}: exact_log={exact:+.6f} "
            f"mc_log={est.log_value:+.6f} dev={nsig:.2f} sigma "
            f"ess={est.ess:.0f}/{est.n_samples} {'ok' if ok else 'OUTSIDE 3 SIGMA'}"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
