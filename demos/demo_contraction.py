"""The contraction mechanism pinning a flow to its Landau leading term.

The difference between a singular solution and its matching Landau field
solves a Stokes problem perturbed by the Landau drift and a quadratic
term.  When the drift and the data are small, the Picard map is a strict
contraction (successive-increment ratios below one half), the fixed point
is unique, and iteration converges geometrically.  Cranking the forcing
amplitude up degrades the ratios and eventually leaves the regime, which
the divergence detector reports.

Runs on a periodic torus with a mollified drift; the contraction
mechanism itself is insensitive to that geometry choice.
"""

from pointflow import (
    ContractionDivergedError, LandauParams, make_forcing,
    make_mollified_drift, run_contraction,
)


def banner(title):
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def main():
    n = 32
    drift = make_mollified_drift(LandauParams.from_magnitude(0.5), n,
                                 delta_in=0.3, delta_out=1.5)
    print(f"Mollified Landau drift: beta = 0.5 (A = {drift.params.A:.1f}), "
          f"cutoffs [{drift.delta_in}, {drift.delta_out}]")
    print(f"Divergence-fixing projection moved the samples by "
          f"{100 * drift.projection_deviation:.1f}% in grid L2 (reported, "
          "not hidden).")

    banner(f"1. Contraction trace at forcing amplitude 1e-3 ({n}^3 grid)")
    trace = run_contraction(drift, make_forcing(n, 1e-3), r=2.0, tol=1e-9)
    print(f"{'iter':>5} {'|v_n|':>14} {'increment':>14} {'ratio':>10}")
    for i in range(trace.iterations):
        ratio = f"{trace.ratios[i - 1]:10.5f}" if i >= 1 else " " * 10
        print(f"{i + 1:5d} {trace.norms[i]:14.6e} "
              f"{trace.increments[i]:14.6e} {ratio}")
    print(f"\nconverged: {trace.converged}   fixed-point residual: "
          f"{trace.residual:.2e}")
    print(f"uniqueness witness (two starts): |v* - v*'| = "
          f"{trace.uniqueness_distance:.2e} <= 10 tol = {10 * trace.tol:.1e}")

    banner("2. Amplitude sweep: ratios grow with the data")
    print(f"{'amplitude':>12} {'iters':>7} {'max ratio':>11} {'verdict':>22}")
    for amp in (1e-4, 1e-3, 1e-2, 1e-1, 10.0):
        try:
            tr = run_contraction(drift, make_forcing(n, amp), r=2.0,
                                 tol=1e-11, max_iters=30)
            verdict = ("contraction" if max(tr.ratios) < 0.5
                       else "outside ratio < 1/2")
            print(f"{amp:12.0e} {tr.iterations:7d} {max(tr.ratios):11.4f} "
                  f"{verdict:>22}")
        except ContractionDivergedError as exc:
            print(f"{amp:12.0e} {exc.trace.iterations:7d} {'-':>11} "
                  f"{'diverged (detector)':>22}")
    print("\nSmall data contracts fast; the quadratic term erodes the "
          "ratio as the\namplitude grows, until the iterates leave the "
          "smallness regime entirely.")

    banner("3. Grid independence of the small-data fixed point")
    for grid in (32, 64):
        d = make_mollified_drift(LandauParams.from_magnitude(0.5), grid)
        tr = run_contraction(d, make_forcing(grid, 1e-3), r=2.0, tol=1e-11)
        print(f"  {grid:3d}^3 grid: |v*|_W(1,2) = {tr.norms[-1]:.10f}")


if __name__ == "__main__":
    main()
