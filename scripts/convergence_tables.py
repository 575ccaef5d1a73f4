#!/usr/bin/env python3
"""Produce the exact-vs-asymptotic convergence tables as CSV.

Columns are (name, N, exact_log, asym_log, ratio) so the output feeds
external plotting directly.  The rows are the verification suite's
convergence trends (``charpoly.verify.TRENDS``: the interior, boundary,
two-charge, truncated-CUE edge, exterior, multi-charge bulk and multi-charge
edge expansions, each against the reference route of its ``EXPANSIONS``
entry), plus the three lemniscate regimes at d = 2.

Usage:
    python scripts/convergence_tables.py [--out tables.csv]
"""

import argparse
import csv
import math
import sys

from charpoly.asymptotics import lemniscate_asym
from charpoly.dualities import lemniscate_partition, log_z_ginibre
from charpoly.verify import convergence_rows


def lemniscate_rows():
    rows = []
    tc = 1.0 / math.sqrt(2.0)
    for n in (1, 2, 3, 4):
        ex = lemniscate_partition(n, 2, 0.3) - lemniscate_partition(n, 2, 0.0)
        rows.append(("lemniscate_sub", n, ex, lemniscate_asym(n, 2, 0.3, "sub")))
    # the d = 2 factor has gamma = -1, which the Gram route takes up to its
    # non-even envelope; the rows stop at the first N it refuses
    for n in (2, 4, 8, 16, 32, 64, 128):
        try:
            ex = lemniscate_partition(n, 2, tc) - lemniscate_partition(n, 2, 0.0)
        except ValueError as exc:
            print(f"lemniscate_critical rows stop before N = {n}: {exc}", file=sys.stderr)
            break
        rows.append(("lemniscate_critical", n, ex, lemniscate_asym(n, 2, tc, "critical")))
    for n in (2, 4, 8):
        t = 1.2
        s = t * math.sqrt(2.0)
        ex = lemniscate_partition(n, 2, t) - 2.0 * ((n * s) ** 2 + log_z_ginibre(n))
        rows.append(("lemniscate_super", n, ex, lemniscate_asym(n, 2, t, "super")))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="output CSV path (default stdout)")
    args = ap.parse_args(argv)
    rows = convergence_rows("full") + lemniscate_rows()
    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(fh, lineterminator="\r\n")
    writer.writerow(["name", "N", "exact_log", "asym_log", "ratio"])
    for name, n, ex, a in rows:
        writer.writerow([name, n, f"{ex:.12f}", f"{a:.12f}", f"{math.exp(ex - a):.8f}"])
    if args.out:
        fh.close()
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
