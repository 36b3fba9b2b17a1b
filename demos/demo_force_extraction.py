"""Two independent routes from a flow field to its point force.

Route 1 integrates the momentum flux tensor over spheres of several radii
(the result must be radius independent for an exact solution).  Route 2
pairs the field against divergence-free plateau test functions: the
distributional momentum balance returns b . phi(0), which recovers the
force component-wise.  A deliberately broken field (Landau plus a smooth
non-solution perturbation) shows how radius drift flags the failure.
"""

import numpy as np

from pointflow import (
    CallableField, LandauField, LandauParams, TestFunction,
    extract_force_weak, flux_integral, weak_residual,
)


def banner(title):
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def main():
    params = LandauParams.from_shape(2.0)
    field = LandauField(params)
    print(f"Reference: Landau solution, A = 2, b = (0, 0, {params.beta:.6f})")

    banner("1. Momentum flux through spheres (radius independence)")
    print(f"{'R':>6} {'b_x':>14} {'b_y':>14} {'b_z':>14}")
    for R in (0.25, 0.5, 1.0, 1.5, 1.75):
        b = flux_integral(field, R)
        print(f"{R:6.2f} {b[0]:14.3e} {b[1]:14.3e} {b[2]:14.8f}")
    print(f"\nEvery radius returns beta = {params.beta:.8f}: the flux of "
          "the momentum tensor\nthrough any enclosing sphere is the "
          "strength of the Dirac source.")

    banner("2. Shrinking spheres (the delta-extraction limit)")
    eps = [0.8, 0.4, 0.2, 0.1, 0.05]
    probes = [flux_integral(field, e) for e in eps]
    print(f"{'eps':>6} {'b_z(eps)':>16} {'drift from first':>18}")
    for e, b in zip(eps, probes):
        print(f"{e:6.2f} {b[2]:16.10f} {np.linalg.norm(b - probes[0]):18.3e}")

    banner("3. Weak-form pairing against plateau test functions")
    phi = TestFunction([0.0, 0.0, 0.0], 0.5, 1.0, [0.0, 0.0, 1.0])
    value = weak_residual(field, phi)
    print(f"  plateau contains origin:  pairing = {value:.8f}"
          f"   (b . phi(0) = {params.beta:.8f})")
    phi_off = TestFunction([0.0, 0.0, 1.2], 0.075, 0.15, [0.0, 0.0, 1.0])
    print(f"  support avoids origin:    pairing = "
          f"{weak_residual(field, phi_off):.3e}   (zero distribution)")
    result = extract_force_weak(field)
    print(f"  full vector from three pairings: ({result.value[0]:.2e}, "
          f"{result.value[1]:.2e}, {result.value[2]:.8f})")

    banner("4. Negative control: a perturbed field is not a solution")
    def broken_rows(pts):
        """Landau u plus a smooth perturbation, and the Landau p."""
        st = field(pts)
        pert = np.stack([np.sin(pts[:, 1] + 0.7), np.sin(pts[:, 2] - 0.4),
                         np.sin(pts[:, 0] + 0.2)], axis=1)
        return np.column_stack([st.u + pert, st.p])

    broken = CallableField(broken_rows)
    probes = [flux_integral(broken, e) for e in eps]
    print(f"{'eps':>6} {'b_z(eps)':>16}")
    for e, b in zip(eps, probes):
        print(f"{e:6.2f} {b[2]:16.8f}")
    print("\nThe flux now drifts with the radius: the Navier-Stokes "
          "equations are not\nsatisfied off the origin, so no single "
          "point force explains the field.")


if __name__ == "__main__":
    main()
