"""The velocity-only probe path and the array-rendered landau report.

Each fast path is checked for bitwise equality against the computation it
replaces: the full FlowState, the three separate weak pairings, four
per-component grid interpolators, and json.dumps / csv.writer output of
the per-point dicts and rows.
"""

import csv
import io
import json
import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import RegularGridInterpolator

from pointflow import (
    CallableField, LandauField, LandauParams, QuadratureRule, RescaledField,
    ball_samples, ball_shell_rule, extract_force_weak, flux_tensor,
    landau_eval, make_forcing, make_mollified_drift, sphere_rule,
    weak_residual, weakform,
)
from pointflow import cli, landau, quadrature, spectral
from pointflow.cli import EXIT_PASS, main
from pointflow.landau import A_MAX, A_MIN
from pointflow.quadrature import NODE_BLOCK

PARAMS = LandauParams.from_magnitude(3.0, [0.3, -0.4, 0.866])
SETTINGS = settings(max_examples=40, deadline=None)


def wavy_velocity(pts):
    return np.stack([np.sin(pts[:, 1] + 0.7), np.cos(pts[:, 2] - 0.4),
                     np.sin(pts[:, 0] * pts[:, 1])], axis=1)


def write_grid(path, params=PARAMS, n=12, half=1.6):
    """A Landau field sampled on an n^3 cell-centred grid, as `landau --csv`."""
    h = 2.0 * half / n
    x = -half + h * (np.arange(n) + 0.5)
    pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    state = landau_eval(params, pts)
    rows = np.concatenate([pts, state.u, state.p[:, None]], axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.POINT_CSV_COLUMNS)
        writer.writerows([repr(v) for v in row] for row in rows.tolist())
    return x, rows


def count_interpolated_nodes(monkeypatch):
    """The list that each RegularGridInterpolator call appends its node
    count to, from now on."""
    nodes = []
    interpolate = RegularGridInterpolator.__call__

    def counted(self, xi, *args, **kwargs):
        nodes.append(len(xi))
        return interpolate(self, xi, *args, **kwargs)

    monkeypatch.setattr(RegularGridInterpolator, "__call__", counted)
    return nodes


def cli_open(buf):
    """Make the CLI's open() return buf, whatever the path."""
    return mock.patch.object(cli, "open", lambda *args, **kwargs: buf,
                             create=True)


def whole_pairing(u, phi, rule):
    """The weak pairing from the velocity u, over every node of rule at once."""
    integrand = (-np.einsum("ki,ki->k", u, phi.laplacian(rule.nodes))
                 - np.einsum("ki,kj,kji->k", u, u, phi.gradient(rule.nodes)))
    return float(rule.weights @ integrand)


def pairing_from_state(field, phi, rule):
    """The weak pairing computed from the full FlowState of the field."""
    return whole_pairing(field(rule.nodes).u, phi, rule)


points_3 = st.integers(1, 6).flatmap(lambda m: arrays(
    np.float64, (m, 3), elements=st.floats(-2.0, 2.0)))


class TestVelocityMatchesState:
    @SETTINGS
    @given(points_3)
    def test_callable_field_batch_and_single(self, pts):
        field = CallableField(lambda p: np.column_stack(
            [wavy_velocity(p), p[:, 0] ** 2]))
        assert np.array_equal(field.velocity(pts), field(pts).u)
        assert np.array_equal(field.velocity(pts[0]), field(pts[0]).u)
        stacked = np.stack([pts, pts + 0.25])
        assert field.velocity(stacked).shape == stacked.shape
        assert np.array_equal(field.velocity(stacked), field(stacked).u)

    @SETTINGS
    @given(points_3, st.floats(0.2, 3.0))
    def test_composite_probes(self, pts, lam):
        pts = pts + 2.5   # keep the Landau part away from its singularity
        pert = CallableField(wavy_velocity)
        for field in (RescaledField(pert, lam), LandauField(PARAMS)):
            assert np.array_equal(field.velocity(pts), field(pts).u)
            assert np.array_equal(field.velocity(pts[0]), field(pts[0]).u)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(
        st.just(None), st.just(A_MAX),
        st.floats(np.log10(A_MIN - 1.0) + 0.01, 8.0).map(
            lambda s: min(1.0 + 10.0**s, A_MAX))),
        arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
            lambda a: np.linalg.norm(a) > 1e-3),
        st.sampled_from([(), (2, 3, 3)]),
        st.floats(-12.0, -1.0), st.integers(0, 2**32 - 1))
    def test_landau_velocity_is_the_states(self, A, axis, lead, tilt, seed):
        # the zero field (None) and shapes from next to A_MIN to A_MAX;
        # points on the axis, a distance 10^tilt off it, and anywhere
        params = (LandauParams.zero() if A is None
                  else LandauParams.from_shape(A, axis))
        rng = np.random.default_rng(seed)
        a = params.axis
        off = np.cross(a, rng.normal(size=3))
        off *= 10.0**tilt / np.linalg.norm(off)
        pts = rng.normal(size=lead + (3,))
        near = rng.choice([-2.0, 0.5, 1.0, 3.0], size=lead)[..., None] * a
        field = LandauField(params)
        for x in (pts, near, near + off):
            assert np.array_equal(field.velocity(x), landau_eval(params, x).u)


class TestGridProbe:
    def test_one_interpolator_equals_four(self, tmp_path):
        x, rows = write_grid(tmp_path / "grid.csv")
        _, probe = cli.parse_field_spec(f"grid:{tmp_path / 'grid.csv'}")
        data = rows[:, 3:].reshape(len(x), len(x), len(x), 4)
        interps = [RegularGridInterpolator((x, x, x), data[..., i])
                   for i in range(4)]
        rng = np.random.default_rng(11)
        pts = rng.uniform(x[0], x[-1], size=(500, 3))
        pts[:8] = rows[:8, :3]   # grid nodes, and the corner
        pts[8] = [x[-1], x[-1], x[-1]]
        assert np.array_equal(probe.velocity(pts),
                              np.stack([f(pts) for f in interps[:3]], axis=-1))
        inner = pts[np.all(np.abs(pts) < x[-2], axis=1)]   # room for the FD steps
        assert np.array_equal(probe(inner).p, interps[3](inner))

    @staticmethod
    def unblocked(x, rows):
        """The probe as one interpolator call over every node."""
        interp = RegularGridInterpolator(
            (x, x, x), rows[:, 3:].reshape(len(x), len(x), len(x), 4))
        return interp, CallableField(interp)

    @pytest.mark.parametrize("extra", [(1, -1), (1, 0), (1, 1), (2, 7)])
    def test_blocks_equal_one_call(self, tmp_path, extra):
        x, rows = write_grid(tmp_path / "grid.csv")
        _, probe = cli.parse_field_spec(f"grid:{tmp_path / 'grid.csv'}")
        _, reference = self.unblocked(x, rows)
        blocks, more = extra
        count = blocks * NODE_BLOCK + more
        pts = np.random.default_rng(count).uniform(x[1], x[-2], (count, 3))
        assert np.array_equal(probe.velocity(pts), reference.velocity(pts))
        state, expected = probe(pts), reference(pts)
        for got, want in ((state.u, expected.u), (state.p, expected.p),
                          (state.grad_u, expected.grad_u)):
            assert np.array_equal(got, want)

    def test_full_evaluation_interpolates_each_node_set_once(
            self, tmp_path, monkeypatch):
        write_grid(tmp_path / "grid.csv")
        nodes = count_interpolated_nodes(monkeypatch)
        code = main(["flux", "--field", f"grid:{tmp_path / 'grid.csv'}",
                     "--radii", "1", "--n-theta", "4", "--tol", "1",
                     "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PASS
        # u and p at the 2 * 4^2 sphere nodes, then u at 6 shifted copies
        assert sum(nodes) == 7 * 32

    def test_out_of_samples_message_is_the_interpolators(self, tmp_path,
                                                         capsys, monkeypatch):
        x, rows = write_grid(tmp_path / "grid.csv")
        _, probe = cli.parse_field_spec(f"grid:{tmp_path / 'grid.csv'}")
        interp, _ = self.unblocked(x, rows)
        pts = np.zeros((2 * NODE_BLOCK + 7, 3))
        pts[5, 2] = 2.0           # the first block leaves the grid along z,
        pts[-1, 0] = -2.0         # the last along x
        # the probe raises the interpolator's error of the first block
        # that leaves the grid
        with pytest.raises(ValueError) as expected:
            interp(pts[:NODE_BLOCK])
        assert "dimension 2" in str(expected.value)
        with pytest.raises(ValueError) as got:
            probe.velocity(pts)
        assert str(got.value) == str(expected.value)
        # the CLI reports it as a numerical failure, exit 3; flux from one
        # full evaluation of its sphere, not node by node
        nodes = count_interpolated_nodes(monkeypatch)
        grid = f"grid:{tmp_path / 'grid.csv'}"
        for argv in (["norms", "--field", grid, "--weak-l3",
                      "--domain", "ball:1.7"],
                     ["flux", "--field", grid, "--radii", "1.7",
                      "--n-theta", "4"]):
            nodes.clear()
            code = main(argv)
            assert code == cli.EXIT_NUMERICAL
            assert capsys.readouterr().err == (
                "numerical failure: One of the requested xi is out of bounds "
                "in dimension 0\n")
        # at most u and p at the 2 * 4^2 sphere nodes and u at 6 shifted copies
        assert len(nodes) <= 7 and set(nodes) == {32}

    def test_ball_out_of_bounds_names_the_first_axis(self, tmp_path, capsys):
        # x in [-1, 1], y in [-0.5, 0.5], z in [-2, 2]: the ball of radius
        # 1.5 leaves the grid along x and y, and its shells up to radius 1
        # only along y; the samples' groups go from the center out, so the
        # first one that leaves the grid, and the message, name dimension 1
        xs, ys, zs = (np.linspace(-h, h, k) for h, k in ((1, 5), (0.5, 3),
                                                         (2, 9)))
        pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"),
                       axis=-1).reshape(-1, 3)
        rows = np.column_stack([pts, wavy_velocity(pts), pts[:, 0]])
        (tmp_path / "box.csv").write_text("x,y,z,ux,uy,uz,p\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        code = main(["norms", "--field", f"grid:{tmp_path / 'box.csv'}",
                     "--weak-l3", "--domain", "ball:1.5"])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: One of the requested xi is out of bounds in "
            "dimension 1\n")

    @SETTINGS
    @given(arrays(np.float64, 125 * 4, elements=st.one_of(
        st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300),
        st.sampled_from([-0.0, 0.1, 1e-5, 123456789.125, 5e-324]))))
    def test_vectorised_parse_equals_float(self, values):
        # at a grid node the trilinear probe returns the stored sample, so
        # the loaded values can be compared with float() of each cell
        axis = [-2.0, -1.0, 0.0, 1.0, 2.0]
        nodes = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                         axis=-1).reshape(-1, 3)
        cells = [[repr(v) for v in row] for row in values.reshape(125, 4).tolist()]
        cells[0][0] = "1e-5"
        cells[1][1] = " 2.5 "
        text = "x,y,z,ux,uy,uz,p\r\n" + "".join(
            f"{a!r},{b!r},{c!r}," + ",".join(cell) + "\r\n"
            for (a, b, c), cell in zip(nodes.tolist(), cells))
        with cli_open(io.StringIO(text)):
            _, probe = cli.parse_field_spec("grid:mem.csv")
        expected = np.array([[float(v) for v in row] for row in cells])
        assert np.array_equal(probe.velocity(nodes), expected[:, :3])
        inner = np.all(np.abs(nodes) < 2.0, axis=1)   # room for the FD steps
        assert np.array_equal(probe(nodes[inner]).p, expected[inner, 3])


def whole_ball_samples(f, radius, n_r, n_theta, n_phi=None):
    """ball_samples' (values, weights) from one call of f over every sample."""
    edges = radius * np.arange(1, n_r + 1) / n_r
    cell_volumes = 4.0 * np.pi / 3.0 * np.diff(
        np.concatenate(([0.0], edges))**3)
    unit = sphere_rule(1.0, n_theta, n_phi)
    pts = edges[:, None, None] * unit.nodes[None, :, :]
    values = np.abs(np.asarray(f(pts.reshape(-1, 3)), dtype=float))
    weights = (cell_volumes[:, None]
               * (unit.weights / (4.0 * np.pi))[None, :]).reshape(-1)
    return values.reshape(-1), weights


def landau_speed(pts):
    return np.linalg.norm(LandauField(PARAMS).velocity(pts), axis=1)


class TestBlockedBallSamples:
    """ball_samples calls f on groups of whole shells of at most NODE_BLOCK
    nodes, from the center out, and keeps the bits of one call."""

    @staticmethod
    def check(n_r, n_theta, n_phi, block):
        calls = []

        def f(pts):
            calls.append(np.linalg.norm(pts, axis=1))
            return landau_speed(pts)

        shell = n_theta * (n_phi or 2 * n_theta)
        with mock.patch.object(quadrature, "NODE_BLOCK", block):
            got = ball_samples(f, 1.3, n_r, n_theta, n_phi)
        want = whole_ball_samples(landau_speed, 1.3, n_r, n_theta, n_phi)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        per = max(block // shell, 1)
        assert [len(r) for r in calls] == [
            shell * min(per, n_r - start) for start in range(0, n_r, per)]
        # whole shells, innermost group first
        assert all(a.max() < b.min() for a, b in zip(calls, calls[1:]))

    # a 2 x 4 rule: 8 nodes per shell
    @pytest.mark.parametrize("block", [5, 8, 20, 24, 64])
    @pytest.mark.parametrize("n_r", [2, 3, 7, 9, 24])
    def test_blocks_equal_one_call(self, block, n_r):
        self.check(n_r, 2, None, block)

    # NODE_BLOCK itself: 512-node shells 16 to a group, and 8,320-node
    # shells one to a group
    @pytest.mark.parametrize("n_r, n_theta, n_phi", [
        (15, 16, 32), (16, 16, 32), (33, 16, 32), (400, 16, 32),
        (3, 64, 130)])
    def test_node_block_equals_one_call(self, n_r, n_theta, n_phi):
        self.check(n_r, n_theta, n_phi, NODE_BLOCK)


class TestMemoryBudget:
    # the ball samples of norms --weak-l3 --domain ball:1.5
    @pytest.mark.parametrize("count", [102_400, 204_800])
    def test_grid_probe_temporaries_do_not_grow(self, tmp_path, count):
        import tracemalloc
        x, _ = write_grid(tmp_path / "grid.csv")
        _, probe = cli.parse_field_spec(f"grid:{tmp_path / 'grid.csv'}")
        pts = np.random.default_rng(4).uniform(x[0], x[-1], (count, 3))
        probe.velocity(pts[:10])
        tracemalloc.start()
        try:
            u = probe.velocity(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.shape == (count, 3)
        # beyond the (m, 4) output, a block's interpolator temporaries
        # (about 240 bytes per node, 2.0 MB); one interpolator call over
        # every node added 41 MB at 204,800 nodes
        assert peak - 32 * count <= 320 * NODE_BLOCK


    def test_grid_load_parses_the_open_file(self, tmp_path):
        import tracemalloc
        n = 24
        write_grid(tmp_path / "grid.csv", n=n)
        spec = f"grid:{tmp_path / 'grid.csv'}"
        cli.parse_field_spec(spec)
        tracemalloc.start()
        try:
            cli.parse_field_spec(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the parsed rows take 56 bytes per row, and with the sort and the
        # check against the product grid the load peaks at about 140;
        # parsing a copy of the whole file text peaked at about 750
        assert peak <= 200 * n**3

    def test_landau_export_holds_one_chunk_of_text(self, tmp_path):
        import tracemalloc
        n = 32
        axis = ((np.arange(n) - 15.5) * 0.1).tolist()
        (tmp_path / "pts.csv").write_text("x,y,z\n" + "".join(
            f"{a!r},{b!r},{c!r}\n" for a in axis for b in axis for c in axis))

        def export(points):
            return main(["landau", "--beta", "2.5", "--axis", "0.3,-0.4,0.866",
                         "--points-file", str(points),
                         "--csv", str(tmp_path / "g.csv"),
                         "--output", str(tmp_path / "r.json")])

        (tmp_path / "one.csv").write_text("x,y,z\n0.5,0.5,0.5\n")
        assert export(tmp_path / "one.csv") == EXIT_PASS   # the first call
        tracemalloc.start()
        try:
            assert export(tmp_path / "pts.csv") == EXIT_PASS
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the points and the (n, 25) table take about 230 bytes per point,
        # and a chunk's FlowState, tensors, number text and report text at
        # most 4 KB per point of the chunk: 8.8 MB at 32^3 (267 bytes per
        # point).  Evaluating every point before the table peaked at 13.5 MB
        # at this EMIT_CHUNK (410 bytes per point); the bound is 10.0 MB
        assert peak <= 240 * n**3 + 4096 * cli.EMIT_CHUNK

    @staticmethod
    def norms_peak(field):
        import tracemalloc
        argv = ["norms", "--field", field, "--weak-l3", "--domain",
                "ball:1.5", "--output", os.devnull]
        assert main(argv) == EXIT_PASS   # the first call
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_PASS
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_weak_l3_of_a_grid_samples_in_node_blocks(self, tmp_path):
        n, m = 32, 400 * 16 * 32
        write_grid(tmp_path / "grid.csv", n=n)
        peak = self.norms_peak(f"grid:{tmp_path / 'grid.csv'}")
        # the samples, their weights and the sort take 48 bytes per sample,
        # and the grid's samples 32 bytes per grid point: 11.0 MB at the
        # default 204,800 samples.  Sampling every node at once peaked at
        # 20.8 MB; the bound is 12.7 MB
        assert peak <= 52 * m + 64 * n**3

    def test_weak_l3_of_landau_runs_the_velocity_stage(self):
        m = 400 * 16 * 32
        peak = self.norms_peak("landau:beta=3.7")
        # as on a grid, 48 bytes per sample: 9.9 MB.  A full landau_eval
        # over every sample peaked at 70.7 MB; the bound is 10.6 MB
        assert peak <= 52 * m

    def test_weak_norm_sort_holds_three_sample_arrays(self):
        import tracemalloc
        m = 400 * 16 * 32
        rng = np.random.default_rng(5)
        values, weights = rng.normal(size=m), 0.1 + rng.random(m)
        tracemalloc.start()
        try:
            report = quadrature.lorentz_quasinorm(values, weights, 3.0, np.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.meta == {"n_samples": m}
        # the order, the sorted values and the cumulative weights take 24
        # bytes per sample: 4.9 MB.  Holding the |values| copy and the
        # order to the end peaked at 6.6 MB; the bound is 5.3 MB
        assert peak <= 26 * m

    def test_witness_does_not_raise_the_peak(self, monkeypatch):
        import tracemalloc
        n = 32
        drift = make_mollified_drift(LandauParams.from_magnitude(0.5), n)
        forcing = make_forcing(n, 1e-2, seed=3)
        step, peaks = spectral.picard_step, []

        def traced_step(*args):
            tracemalloc.reset_peak()
            out = step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(spectral, "picard_step", traced_step)
        tracemalloc.start()
        try:
            trace = spectral.run_contraction(drift, forcing)
        finally:
            tracemalloc.stop()
        main_run = peaks[:trace.iterations]
        witness = peaks[trace.iterations + 1:]
        assert main_run and witness
        # the witness holds the traced run's fixed point, one band (233 KB
        # at n = 32) beyond what the traced run holds.  Holding Phi(0) and
        # the witness's own first iterate as well raised the witness's
        # steps by two bands (466 KB); the bound allows a tenth of one
        # either way
        band = 16 * 3 * (2 * (n // 3) + 1)**2 * (n // 3 + 1)
        assert abs(max(witness) - max(main_run) - band) <= band // 10

    def test_weak_extraction_pairs_in_node_blocks(self, tmp_path):
        import tracemalloc
        write_grid(tmp_path / "grid.csv", n=32)
        _, probe = cli.parse_field_spec(f"grid:{tmp_path / 'grid.csv'}")
        extract_force_weak(probe, n_r=4, n_theta=4)
        tracemalloc.start()
        try:
            m = extract_force_weak(probe).n_nodes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the nodes, weights and three integrands take 56 bytes per node,
        # and a block's velocity, test-function and einsum temporaries about
        # 320 bytes per node of the block: 6.3 MB at the default 65,536
        # nodes (96 bytes per node).  The velocity of every node at once
        # peaked at 7.1 MB, and pairing every node at once at 23.3 MB (355
        # bytes per node); the bound is 9.6 MB
        assert peak <= 96 * m + 400 * NODE_BLOCK


class TestWeakExtraction:
    @pytest.mark.parametrize("center, a, b", [((0.0, 0.0, 0.0), 0.5, 1.0),
                                              ((0.1, -0.2, 0.05), 0.3, 0.9)])
    def test_one_evaluation_equals_three_pairings(self, tmp_path, center, a, b):
        write_grid(tmp_path / "grid.csv")
        _, grid = cli.parse_field_spec(f"grid:{tmp_path / 'grid.csv'}")
        for field in (grid, LandauField(PARAMS)):
            value = extract_force_weak(field, center, a, b, n_r=10,
                                       n_theta=8).value
            rule = ball_shell_rule(a, b, 10, 8, center=np.asarray(center))
            phis = [weakform.TestFunction(center, a, b, e) for e in np.eye(3)]
            separate = [weak_residual(field, phi, rule=rule) for phi in phis]
            from_state = [pairing_from_state(field, phi, rule) for phi in phis]
            assert value.tolist() == separate == from_state


def first_nodes(rule, m):
    """The rule of the first m nodes of rule."""
    weights = rule.weights[:m]
    return QuadratureRule(rule.nodes[:m], weights, float(weights.sum()), 0)


# a test function whose plateau holds the singularity
plateaus = st.tuples(
    st.tuples(*[st.floats(-0.1, 0.1)] * 3), st.floats(0.2, 0.6),
    st.floats(0.1, 0.8)).map(lambda t: (t[0], t[1], t[1] + t[2]))


class TestBlockedPairing:
    """The pairing runs NODE_BLOCK nodes at a time and keeps the bits of
    a pairing over every node at once."""

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(plateaus)
    def test_pairing_and_residual_equal_the_whole_array(self, plateau):
        center, a, b = plateau
        field = LandauField(PARAMS)
        # 13 * 2 * 32^2 = 26,624 nodes, enough for every size below
        rule = ball_shell_rule(a, b, 13, 32, center=np.asarray(center))
        phi = weakform.TestFunction(center, a, b, [0.2, -0.5, 0.8])
        for m in (1, NODE_BLOCK - 1, NODE_BLOCK, NODE_BLOCK + 1,
                  3 * NODE_BLOCK + 5):
            part = first_nodes(rule, m)
            u = field.velocity(part.nodes)
            expected = whole_pairing(u, phi, part)
            assert weakform._pairings(field, [phi], part) == [expected]
            assert weak_residual(field, phi, rule=part) == expected

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(plateaus)
    def test_extraction_equals_the_whole_array(self, plateau):
        center, a, b = plateau
        field = LandauField(PARAMS)
        # rules of NODE_BLOCK - 128, NODE_BLOCK, NODE_BLOCK + 22 and
        # 3 NODE_BLOCK nodes
        for n_r, n_theta in ((7, 24), (4, 32), (3, 37), (12, 32)):
            rule = ball_shell_rule(a, b, n_r, n_theta,
                                   center=np.asarray(center))
            u = field.velocity(rule.nodes)
            expected = [whole_pairing(u, weakform.TestFunction(
                center, a, b, e), rule) for e in np.eye(3)]
            got = extract_force_weak(field, center, a, b, n_r=n_r,
                                     n_theta=n_theta)
            assert got.value.tolist() == expected


class TestCallBudget:
    """The velocity-only paths call the probe's sampler once per node set,
    or once per NODE_BLOCK block of it."""

    @staticmethod
    def counting_field(inner):
        """A CallableField over inner's (u, p) rows, and the point count
        of each sampler call."""
        calls = []

        def samples(pts):
            calls.append(len(pts))
            state = inner(pts)
            return np.column_stack([state.u, state.p])

        return CallableField(samples), calls

    def test_weak_extraction_evaluates_once(self):
        field, calls = self.counting_field(LandauField(PARAMS))
        extract_force_weak(field, n_r=8, n_theta=6)
        assert calls == [8 * 6 * 12]

    def test_weak_extraction_evaluates_each_block_once(self):
        # the default rule, as verify weak runs it: 32 * 32 * 64 nodes
        points = []

        def samples(pts):
            points.append(pts)
            return LandauField(PARAMS).velocity(pts)

        extract_force_weak(CallableField(samples))
        assert [len(pts) for pts in points] == [NODE_BLOCK] * 8
        assert np.array_equal(np.concatenate(points),
                              ball_shell_rule(0.5, 1.0, 32, 32).nodes)

    def test_weak_pairing_evaluates_once(self):
        field, calls = self.counting_field(LandauField(PARAMS))
        phi = weakform.TestFunction([0, 0, 0], 0.5, 1.0, [0, 0, 1])
        weak_residual(field, phi, n_r=8, n_theta=6)
        assert calls == [8 * 6 * 12]

    def test_velocity_readers_skip_pressure_and_gradient(self, tmp_path,
                                                          monkeypatch):
        def refuse(self):
            raise AssertionError("a velocity reader ran another stage")

        for stage in ("p", "grad", "gradp"):
            monkeypatch.setattr(landau._Stages, stage, refuse)
        out = ["--output", str(tmp_path / "r.json")]
        for argv in (["norms", "--field", "landau:A=2", "--weak-l3"],
                     ["norms", "--field", "landau:A=2", "--lorentz", "3,2"],
                     ["norms", "--field", "landau:A=2", "--decay", "--ref",
                      "A=2"],
                     ["norms", "--sweep-beta", "1:2:3"],
                     ["verify", "selfsim", "--field", "landau:A=2",
                      "--lambda", "0.5"],
                     ["verify", "weak", "--field", "landau:A=2"]):
            assert main(argv + out) == EXIT_PASS
        make_mollified_drift(PARAMS, 16)

    def test_full_evaluation_calls_seven_times(self):
        field, calls = self.counting_field(LandauField(PARAMS))
        field(np.full((5, 3), 0.5))
        # u and p at the points, then u at the 6 shifted copies
        assert calls == [5] * 7

    def test_selfsim_evaluates_once_per_point_set(self, tmp_path, monkeypatch):
        field, calls = self.counting_field(LandauField(PARAMS))
        monkeypatch.setattr(cli, "_load_grid_field", lambda path: field)
        code = main(["verify", "selfsim", "--field", "grid:counted.csv",
                     "--lambda", "0.5", "--samples", "20",
                     "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PASS
        # the field at x and at lambda x
        assert calls == [20, 20]

    @pytest.mark.parametrize("flags", [["--weak-l3"], ["--lorentz", "3,2"]])
    def test_norm_sampling_evaluates_once(self, tmp_path, monkeypatch, flags):
        field, calls = self.counting_field(LandauField(PARAMS))
        monkeypatch.setattr(cli, "_load_grid_field", lambda path: field)
        code = main(["norms", "--field", "grid:counted.csv", *flags,
                     "--domain", "ball:1", "--resolution", "20,6,12",
                     "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PASS
        assert calls == [20 * 6 * 12]


def reference_points(points, u, p, grad, T):
    """The points block as the report held it before: a dict per point."""
    return [{"x": pt.tolist(), "u": v.tolist(), "p": float(q),
             "grad_u": g.tolist(), "T": t.tolist()}
            for pt, v, q, g, t in zip(points, u, p, grad, T)]


special_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 1.7976931348623157e308,
                     5e-324, 1e16, 1e-5, 0.1]))


@st.composite
def point_tables(draw):
    n = draw(st.integers(1, 9))
    return [draw(arrays(np.float64, shape, elements=special_floats))
            for shape in ((n, 3), (n, 3), (n,), (n, 3, 3), (n, 3, 3))]


def report_text(report):
    """A landau report as written: json.dumps(report, indent=2,
    sort_keys=True) with each point of its payload's list of point dicts
    on its own line, as 6 spaces and json.dumps(point, sort_keys=True)."""
    points = report["payload"]["points"]
    lines = ",\n".join(" " * 6 + json.dumps(point, sort_keys=True)
                       for point in points)
    block = "[\n" + lines + "\n    ]" if points else "[]"
    marker = '"\\u0000the payload\'s points"'
    envelope = json.dumps(dict(report, payload=dict(
        report["payload"], points=json.loads(marker))), indent=2,
        sort_keys=True)
    assert envelope.count(marker) == 1
    return envelope.replace(marker, block)


def landau_report(points, u, p, grad, T, config=None, **payload_keys):
    """A landau report of the arrays, with payload_keys added to its
    payload, and its text."""
    table = cli._point_rows(points, SimpleNamespace(u=u, p=p, grad_u=grad), T)
    payload = {"A": 2.0, "beta": 34.7, "axis": [0.0, 0.0, 1.0],
               "points": table, **payload_keys}
    report = cli._report("landau", config or {"seed": 0}, payload, None)
    report["duration_s"] = 0.5
    return report, report_text(dict(report, payload=dict(
        payload, points=reference_points(points, u, p, grad, T))))


class TestLandauReport:
    @settings(max_examples=60, deadline=None)
    @given(point_tables(), st.integers(1, 4))
    def test_render_equals_json_dumps(self, arrays5, chunk):
        report, expected = landau_report(*arrays5)
        with mock.patch.object(cli, "EMIT_CHUNK", chunk):
            assert "".join(cli._json_chunks(report)) == expected

    def test_marker_lookalike_in_config(self):
        # strings and keys that read like the points key or a number's
        # place, in the config before the payload's points and in a payload
        # key after them, stay text
        rng = np.random.default_rng(2)
        parts = [rng.normal(size=s) for s in ((4, 3), (4, 3), (4,),
                                              (4, 3, 3), (4, 3, 3))]
        cases = [({"output": text}, {}) for text in (
            "\x000", "\x0024", '"\x003"', "%s", "{0}", '"points": [',
            '"points": []', "\\u00000")]
        cases += [({"points": []}, {}),
                  ({"seed": 0}, {"units": '"points": []'})]
        for config, payload_keys in cases:
            report, expected = landau_report(*parts, config=config,
                                             **payload_keys)
            assert "".join(cli._json_chunks(report)) == expected

    def test_lookalike_config_builds_only_the_marker_point(self):
        # the report is dumped once, with its payload's points left out, and
        # no path renders it again through per-point dicts; lookalikes
        # before and after the payload's points stay text
        rng = np.random.default_rng(3)
        parts = [rng.normal(size=s) for s in ((6, 3), (6, 3), (6,),
                                              (6, 3, 3), (6, 3, 3))]
        report, expected = landau_report(
            *parts, config={"output": "\x000", "points": ["\x002"]},
            units="\x001")
        with mock.patch.object(cli.json, "dumps",
                               wraps=cli.json.dumps) as dumps:
            assert "".join(cli._json_chunks(report)) == expected
        assert dumps.call_count == 1
        dumped = dumps.call_args.args[0]
        assert dumped["payload"]["points"] == []
        assert dumped["config"]["output"] == "\x000"
        assert dumped["payload"]["units"] == "\x001"

    def test_empty_table_writes_no_points_and_the_csv_header(self, tmp_path):
        empty = [np.empty(s) for s in ((0, 3), (0, 3), (0,), (0, 3, 3),
                                       (0, 3, 3))]
        report, expected = landau_report(*empty)
        del report["duration_s"]
        cli._emit(report, str(tmp_path / "r.json"), 0.5,
                  str(tmp_path / "u.csv"))
        text = (tmp_path / "r.json").read_text()
        assert text == expected + "\n"
        assert json.loads(text)["payload"]["points"] == []
        assert (tmp_path / "u.csv").read_bytes() == csv_writer_bytes(*empty[:3])

    def test_emit_writes_json_dumps_and_newline(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        parts = [rng.normal(size=s) for s in ((5, 3), (5, 3), (5,),
                                              (5, 3, 3), (5, 3, 3))]
        report, expected = landau_report(*parts)
        del report["duration_s"]
        cli._emit(report, str(tmp_path / "r.json"), 0.5)
        assert (tmp_path / "r.json").read_text() == expected + "\n"
        cli._emit(report, None, 0.5)
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("count", [1, 7, 300])
    def test_cli_report_and_csv(self, tmp_path, count):
        rng = np.random.default_rng(count)
        pts = rng.normal(size=(count, 3))
        if count == 1:
            argv = ["--point", ",".join(map(repr, pts[0].tolist()))]
        else:
            (tmp_path / "pts.csv").write_text(
                "x,y,z\n" + "".join(",".join(map(repr, row)) + "\n"
                                    for row in pts.tolist()))
            argv = ["--points-file", str(tmp_path / "pts.csv")]
        with mock.patch.object(cli, "EMIT_CHUNK", 64):
            code = main(["landau", "--beta", "2.5", "--axis", "0,0.6,0.8",
                         *argv, "--csv", str(tmp_path / "u.csv"),
                         "--output", str(tmp_path / "r.json")])
        assert code == EXIT_PASS
        text = (tmp_path / "r.json").read_text()
        report = json.loads(text)
        assert text == report_text(report) + "\n"
        state = landau_eval(LandauParams.from_magnitude(2.5, [0, 0.6, 0.8]), pts)
        assert report["payload"]["points"] == reference_points(
            pts, state.u, state.p, state.grad_u, flux_tensor(state))

        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(cli.POINT_CSV_COLUMNS)
        for pt, u, p in zip(pts, state.u, state.p):
            writer.writerow([repr(float(v)) for v in (*pt, *u, p)])
        assert (tmp_path / "u.csv").read_bytes() == expected.getvalue().encode()

    def test_one_point_chunks_equal_the_whole_batch(self, tmp_path):
        # every chunk is a single point, evaluated alone
        pts = np.random.default_rng(8).normal(size=(41, 3))
        (tmp_path / "pts.csv").write_text("".join(
            ",".join(map(repr, row)) + "\n" for row in pts.tolist()))
        with mock.patch.object(cli, "EMIT_CHUNK", 1):
            assert main(["landau", "--beta", "3.0",
                         "--axis", "0.3,-0.4,0.866",
                         "--points-file", str(tmp_path / "pts.csv"),
                         "--output", str(tmp_path / "r.json")]) == EXIT_PASS
        state = landau_eval(PARAMS, pts)
        got = json.loads((tmp_path / "r.json").read_text())
        assert got["payload"]["points"] == reference_points(
            pts, state.u, state.p, state.grad_u, flux_tensor(state))

    @SETTINGS
    @given(point_tables())
    def test_csv_rows_equal_csv_writer(self, tmp_path_factory, arrays5):
        points, u, p, grad, T = arrays5
        # one path for every example: each rewrite, longer or shorter than
        # the last, must leave exactly its own rows
        path = tmp_path_factory.getbasetemp() / "rewritten.csv"
        report, _ = landau_report(*arrays5)
        cli._emit(report, os.devnull, 0.5, str(path))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(cli.POINT_CSV_COLUMNS)
        for pt, v, q in zip(points, u, p):
            writer.writerow([repr(float(c)) for c in (*pt, *v, q)])
        assert path.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("chunk", [10, 5, 2])   # 1, 2 and 5 chunks
    @pytest.mark.parametrize("config", [{"seed": 0}, {"output": "\x000"}],
                             ids=["layout", "marker-lookalike"])
    def test_one_pass_equals_json_dumps_and_csv_writer(self, tmp_path, chunk,
                                                       config):
        rng = np.random.default_rng(chunk)
        parts = [rng.normal(size=s) for s in ((10, 3), (10, 3), (10,),
                                              (10, 3, 3), (10, 3, 3))]
        parts[0][3, 1], parts[1][7, 2], parts[2][9] = np.nan, np.inf, -np.inf
        parts[4][0, 1, 1] = np.nan
        report, expected = landau_report(*parts, config=config)
        del report["duration_s"]
        with mock.patch.object(cli, "EMIT_CHUNK", chunk):
            cli._emit(report, str(tmp_path / "r.json"), 0.5,
                      str(tmp_path / "u.csv"))
        assert (tmp_path / "r.json").read_text() == expected + "\n"
        assert (tmp_path / "u.csv").read_bytes() == csv_writer_bytes(*parts[:3])

    def test_an_exception_cuts_both_files(self, tmp_path):
        rng = np.random.default_rng(6)
        parts = [rng.normal(size=s) for s in ((6, 3), (6, 3), (6,),
                                              (6, 3, 3), (6, 3, 3))]
        rows, out = tmp_path / "u.csv", tmp_path / "r.json"
        for path in (rows, out):
            path.write_text("stale " * 10_000)
        report, expected = landau_report(*parts)
        del report["duration_s"]
        text_chunks = cli._text_chunks

        def first_chunk_only(table, csv=None):
            yield next(text_chunks(table, csv))
            raise RuntimeError("interrupted")

        with mock.patch.object(cli, "EMIT_CHUNK", 2), \
                mock.patch.object(cli, "_text_chunks", first_chunk_only), \
                pytest.raises(RuntimeError):
            cli._emit(report, str(out), 0.5, str(rows))
        # the header and the first chunk's two rows, and the report up to
        # the first chunk's two points
        assert rows.read_bytes().splitlines(keepends=True) == \
            csv_writer_bytes(*parts[:3]).splitlines(keepends=True)[:3]
        text = out.read_text()
        assert expected.startswith(text) and text.count('"grad_u"') == 2


def csv_writer_bytes(points, u, p):
    """The x,y,z,ux,uy,uz,p CSV of the points, as csv.writer writes it."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(cli.POINT_CSV_COLUMNS)
    for pt, v, q in zip(points, u, p):
        writer.writerow([repr(float(c)) for c in (*pt, *v, q)])
    return expected.getvalue().encode()
