#!/usr/bin/env python3
"""Sweep projected-marginal gaussianity across bodies and subspace dimensions.

For every requested body the script draws an isotropic sample, projects it
onto a Haar subspace, and writes the pointwise density-to-gaussian ratios
plus the thin-shell fraction of the ambient sample.  With ``--alpha`` the
ratios are those of the projection smoothed by N(0, v I_n), v the schedule's
ambient variance v(n), estimated with no noise drawn as a kernel average of
the unsmoothed projection (``projclt.cli.projected_ratio``) and read against
the gaussian of variance 1 + v.  The sample is streamed block by block twice
from the same seed, once for its norms and once for its projection, so the
samples x n batch is never held.  Example:

    python scripts/run_clt_scan.py --bodies cube,simplex --n 300 \
        --samples 200000 --l 1 --alpha 10 --seed 42 --out scan.csv
"""

import argparse
import csv
import sys

import numpy as np

from projclt.cli import projected_ratio, usable_cores
from projclt.model import BodySpec, ConvolutionSchedule
from projclt.radial import norm_column, thin_shell_fraction
from projclt.samplers import sample_body


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--bodies", default="cube,ball,simplex,product_laplace",
                   help="comma-separated catalog bodies")
    p.add_argument("--n", type=int, default=300, help="ambient dimension")
    p.add_argument("--l", type=int, default=1, help="subspace dimension (<= 3)")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--alpha", type=float, default=None,
                   help="smoothing schedule parameter; omit for raw projections")
    p.add_argument("--max-radius", type=float, default=2.0)
    p.add_argument("--grid-points", type=int, default=41)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threads", type=int, default=usable_cores(),
                   help="worker threads (default: the usable cores)")
    p.add_argument("--out", required=True, help="CSV destination")
    return p.parse_args(argv)


def scan_body(kind, args, seed):
    # Three children, the middle one unused, keep the basis seed and raw bytes of schema 6.
    body_seed, _, basis_seed = np.random.SeedSequence(seed).spawn(3)
    spec = BodySpec(kind, args.n)
    norms = sample_body(spec, args.samples, body_seed, threads=args.threads, reduce=norm_column)
    shell = thin_shell_fraction(norms, args.n ** (-1.0 / 15.0), dimension=args.n)
    _, report = projected_ratio(
        spec, args.samples, body_seed, args.l, basis_seed, args.max_radius, args.grid_points,
        schedule=None if args.alpha is None else ConvolutionSchedule(args.alpha),
        threads=args.threads,
    )
    return report, shell


def main(argv=None):
    args = parse_args(argv)
    bodies = [b.strip() for b in args.bodies.split(",") if b.strip()]
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["body", "point", "ratio", "sup_abs_deviation", "shell_fraction"])
        for i, kind in enumerate(bodies):
            report, shell = scan_body(kind, args, args.seed + i)
            for point, ratio in zip(report.radius_grid, report.per_point_ratios):
                writer.writerow([kind, repr(float(point)), repr(float(ratio)),
                                 repr(report.sup_abs_deviation), repr(shell.fraction)])
            print(f"{kind:16s} sup|ratio-1| = {report.sup_abs_deviation:.4f}   "
                  f"off-shell fraction = {shell.fraction:.2e}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
