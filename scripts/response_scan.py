#!/usr/bin/env python3
"""Linear-response study: multiplier table, stability margin, and the
low-frequency threshold for a thermal distribution."""

import argparse

import numpy as np

import hartorus as ht


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--T", type=float, default=1.0, help="temperature")
    ap.add_argument("--mu", type=float, default=0.0)
    ap.add_argument("--amplitude", type=float, default=0.1, help="delta-potential strength")
    args = ap.parse_args()

    f = ht.fermi(args.T, args.mu)
    cov = ht.CovarianceProfile(f, args.d)
    grid = ht.TorusGrid(args.d, 2 * np.pi, 8)
    table = ht.MultiplierTable.build(cov, ht.default_tau_grid(32.0, 1e-2, 12),
                                     np.linspace(grid.xi_min, grid.nyquist, 12))
    print(f"fermi(T={args.T}, mu={args.mu}), d={args.d}: "
          f"sup|m_f| = {table.sup_abs():.4f}, max quadrature error {table.max_error():.1e}")

    w = ht.delta_potential(args.amplitude)
    margin = ht.stability_margin(table, w)
    print(f"margin(|1 - w-hat m_f|) = {margin.margin:.6f} "
          f"at tau={margin.arg_tau:.3f}, |xi|={margin.arg_xi:.3f}")

    eps = ht.epsilon_g(cov)
    print(f"low-frequency threshold: {eps.value:.6f} "
          f"(converged={eps.converged}, shells {['%.4f' % v for v in eps.shell_minima]})")
    print(f"defocusing condition value eps_g * w-hat(0)_+ = {eps.value * max(w.what0, 0):.4f} "
          f"vs 2|S^{args.d - 1}| = {2 * ht.sphere_area(args.d):.4f}")

    for b in ht.hypothesis_check(cov, w, epsilon_g=eps.value):
        status = {True: "pass", False: "FAIL", None: "indeterminate"}[b.passed]
        print(f"  [{status}] {b.name}: value {b.value:.4g}"
              + (f" (threshold {b.threshold:.4g})" if b.threshold else ""))


if __name__ == "__main__":
    main()
