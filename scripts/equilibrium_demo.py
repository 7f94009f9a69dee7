#!/usr/bin/env python3
"""Equilibrium invariance and splitting-order demonstration."""

import argparse

import numpy as np

import hartorus as ht


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=64)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    args = ap.parse_args()

    grid = ht.TorusGrid(1, 2 * np.pi, args.N)
    ens, rep = ht.init_equilibrium(grid, ht.fermi(1.0, 0.0), ht.delta_potential(1.0), 1e-8)
    print(f"{ens.n_modes} modes, gauge mass {ens.m:.6f} "
          f"(continuum {ht.equilibrium_mass(ht.fermi(1.0, 0.0), ht.delta_potential(1.0), 1):.6f}), "
          f"truncated fraction {rep.truncated_fraction:.2e}")

    # the unperturbed run, read from its observation stream a mode chunk at a time
    stream = ht.observations(ens, None, args.T, args.dt, obs_stride=max(1, int(0.01 / args.dt)))
    masses, spread = [], 0.0
    for t, chunks in stream:
        rho, mass, residual = np.zeros(grid.shape), np.zeros(ens.n_modes), 0.0
        for chunk in chunks:
            modes, u = chunk.modes, chunk.fields(np.empty_like(chunk.hat))
            rho += np.sum(np.abs(u) ** 2, axis=0)
            mass[modes] = np.sum(np.abs(u) ** 2, axis=1) * grid.dx
            residual = max(residual, np.max(np.abs(u - ens.equilibrium_at(t, modes))))
        masses.append(mass)
        spread = max(spread, rho.max() - rho.min())
    m0 = masses[0]
    print(f"mass drift        {np.max(np.abs(np.array(masses) - m0) / m0):.3e}")
    print(f"density deviation {spread:.3e}")
    print(f"gauge residual    {residual:.3e}")  # at the last time

    bump = ht.BumpSpec(0.2, 0.8, (np.pi,), (1.0,), mode=4)

    def drift(dt):
        tr = ht.evolve(ens, bump, 0.5, dt, obs_stride=5)
        return np.max(np.abs(tr.energies - tr.energies[0]))

    d1, d2 = drift(4e-3), drift(2e-3)
    print(f"energy drift {d1:.3e} -> {d2:.3e} under dt halving (ratio {d1 / d2:.3f})")


if __name__ == "__main__":
    main()
