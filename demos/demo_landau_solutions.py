"""Tour of the Landau point-force solutions.

Walks through the closed-form family: the force-shape parameter relation,
field values on and off the jet axis, the pointwise Navier-Stokes residual
away from the singularity, exact (-1)-homogeneity, and rotation
equivariance.
"""

import numpy as np

from pointflow import (
    A_from_beta, LandauField, LandauParams, RescaledField, beta_from_A,
    landau_eval, ns_residual, sup_speed_on_unit_sphere,
)


def banner(title):
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def main():
    banner("1. The force-shape relation beta(A)")
    print(f"{'A':>12} {'beta(A)':>16} {'A recovered':>16}")
    print("-" * 46)
    for A in (1.001, 1.1, 1.5, 2.0, 5.0, 20.0, 1e3, 1e6):
        beta = beta_from_A(A)
        back = A_from_beta(beta)
        print(f"{A:12.4g} {beta:16.8g} {back:16.10g}")
    print("\nbeta is strictly decreasing: a strong point force means a "
          "slender jet (A near 1),\na weak force the Stokeslet regime "
          "(large A, beta ~ 16 pi / A).")

    banner("2. Field values on the jet axis (A = 2, beta = %.4f)"
           % beta_from_A(2.0))
    params = LandauParams.from_shape(2.0)
    for label, x in [("ahead  (0,0,+1)", [0.0, 0.0, 1.0]),
                     ("behind (0,0,-1)", [0.0, 0.0, -1.0]),
                     ("side   (1,0,0)", [1.0, 0.0, 0.0])]:
        st = landau_eval(params, x)
        print(f"  {label}:  u = ({st.u[0]:+.4f}, {st.u[1]:+.4f}, "
              f"{st.u[2]:+.4f})   p = {st.p:+.4f}")
    print("\nNote the inflow feeding the jet from behind: the velocity "
          "points along +e_z\non the whole axis, strongest ahead of the "
          "force.")

    banner("3. Pointwise momentum residual away from the origin")
    rng = np.random.default_rng(1)
    print(f"{'A':>6} {'max |x|^3 |residual| over 200 points':>40}")
    for A in (1.5, 2.0, 5.0):
        p = LandauParams.from_shape(A)
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = 0.01 + 1.49 * rng.random(200)
        res = ns_residual(p, radii[:, None] * dirs)
        worst = np.max(radii**3 * np.linalg.norm(res, axis=1))
        print(f"{A:6.1f} {worst:40.3e}")
    print("\nEvery term is a closed form, so the residual is round-off:"
          "\nthe fields solve the equations exactly.")

    banner("4. Exact (-1)-homogeneity")
    pts = rng.normal(size=(100, 3))
    ref = landau_eval(params, pts)
    for lam in (0.5, 2.0, 10.0):
        st = RescaledField(LandauField(params), lam)(pts)
        defect = np.max(np.linalg.norm(st.u - ref.u, axis=1)
                        / np.linalg.norm(ref.u, axis=1))
        print(f"  lambda = {lam:5.1f}: rescaling defect {defect:.3e}")

    banner("5. Rotation equivariance and the speed-force monotonicity")
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    pts = rng.normal(size=(50, 3))
    turned = LandauParams(A=params.A, beta=params.beta, axis=R @ params.axis)
    defect = np.max(np.linalg.norm(
        landau_eval(turned, pts @ R.T).u - landau_eval(params, pts).u @ R.T,
        axis=-1))
    print(f"  quarter turn about e_z: max |U^(Rb)(Rx) - R U^b(x)| = {defect:.3e}")
    print(f"\n  {'beta':>8} {'sup |U| on unit sphere':>24}")
    for beta in (1.0, 5.0, 25.0, 100.0):
        sup = sup_speed_on_unit_sphere(LandauParams.from_magnitude(beta))
        print(f"  {beta:8.1f} {sup:24.6f}")
    print("\nThe maximal speed grows monotonically with the force "
          "magnitude.")


if __name__ == "__main__":
    main()
