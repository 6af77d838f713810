"""Structural properties of the estimated effective density.

Three verified inequalities on small cubes: the growth sandwich
(coercivity below, mean weight above), midpoint convexity along a
rank-one slope segment on a periodic checkerboard, and homogeneity
along rays with and without a lower-order term.  Every number is an
interval, and each check counts its claims as holding, undecided or
failing.
"""

import argparse

import numpy as np

from homlab import (DistributionSpec, FieldSpec, IidCubes, Periodic,
                    check_rank_one_convexity, recession,
                    verify_growth_sandwich)

E1 = np.array([[1.0, 0.0]])
E2 = np.array([[0.0, 1.0]])


def counts(report):
    """A report's claims as homlab.decide counts them."""
    return (f"claims: {report.holds} hold, {report.undecided} undecided, "
            f"{report.fails} fail")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    tp = FieldSpec(dimension=2, structure=IidCubes(),
                   diagonal=DistributionSpec.two_point(1.0, 0.5, 2.0))
    sw = verify_growth_sandwich(tp, [E1, E2, E1 + E2], t_list=(8, 16),
                                n_real=8, seed=args.seed)
    consts = sw.details["constants"]
    print("growth sandwich on the two-point field "
          f"(c0={consts.c0:.4f}, C0={consts.C0:.4f})")
    for row in sw.details["per_xi"]:
        est = row["estimate"]
        print(f"  xi={np.ravel(row['xi'])}: estimate {est.value:.4f} "
              f"in [{est.lower:.4f}, {est.upper:.4f}], "
              f"lower margin {row['lower_margin']:+.4f}, "
              f"upper margin {row['upper_margin']:+.4f}")
    print(f"  {counts(sw)}, passed: {sw.passed}")
    print()

    tile = FieldSpec(dimension=2, structure=Periodic(tile=[[1.0, 2.0],
                                                           [2.0, 1.0]]))
    r1 = check_rank_one_convexity(tile, E1, E2, t=8, n_grid=5, n_real=1, seed=args.seed)
    print("rank-one segment e2 -> e1 on the periodic checkerboard")
    for lam, mean in zip(r1.details["lambdas"], r1.details["means"]):
        print(f"  lambda={lam:.2f}: {mean:.5f}")
    print("  midpoint slacks in " + ", ".join(
        f"[{lo:+.2e}, {hi:+.2e}]" for lo, hi in zip(r1.details["lower"], r1.details["upper"])))
    print(f"  {counts(r1)}, passed: {r1.passed}")
    print()

    rec = recession(tp, E1 + E2, s_list=(1.0, 2.0, 5.0), t=8, n_real=6,
                    seed=args.seed)
    print("ray s -> f(s xi)/s without lower-order term (must be flat)")
    print("  " + ", ".join(f"s={s:g}: {m:.5f}"
                           for s, m in zip(rec.details["s_list"], rec.details["means"])))
    print(f"  mode={rec.details['mode']}, {counts(rec)}, passed: {rec.passed}")

    with_lam = FieldSpec(dimension=2, structure=IidCubes(),
                         diagonal=DistributionSpec.two_point(1.0, 0.5, 2.0),
                         lower_order=DistributionSpec.constant(1.0))
    rec2 = recession(with_lam, E1 + E2, s_list=(1.0, 2.0, 5.0), t=8, n_real=6,
                     seed=args.seed)
    print("same ray with lambda = 1 (must decrease by (1/s - 1/s') E[lambda])")
    print("  " + ", ".join(f"s={s:g}: {m:.5f}"
                           for s, m in zip(rec2.details["s_list"], rec2.details["means"])))
    print(f"  mode={rec2.details['mode']}, {counts(rec2)}, passed: {rec2.passed}")


if __name__ == "__main__":
    main()
