"""Orchestration-layer tests: noise injection, identity residuals on
refined lattices, symbol-check plumbing, full experiment runs with their
on-disk artifacts, and the convergence table.

The heavy pieces run on deliberately coarse grids; the acceptance suite
exercises the published grid sizes.
"""

import ast
import inspect
import math
import os
import tracemalloc
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidecast.harness as harness
import sidecast.transform as transform
from sidecast.cli import main
from sidecast.fields import GridSpec, RealField, l2_norm, l2_distance, \
    read_field, sample
from sidecast.harness import (_G_SEED_OFFSET,
                              _lattice_offsets, _symbol_rows,
                              convergence_table, convolve2_causal,
                              default_data_grid, default_out_grid,
                              identity_residual,
                              noisy_histories, perturb, problem_inputs,
                              refined_window_grid, run_experiment,
                              write_convergence_csv, write_run)
from sidecast.kernels import (R_SPEC, S_SPEC, SINGULAR_OFFSET, KernelSpec,
                              kernel_eval, s_hat, test_problem)
from sidecast.regularizer import RegParams, reconstruct, region_for

from direct_reference import identity_rhs

# tiny box for symbol-row tests that never look at the box quadrature
_TINY_BOX = dict(x_half=1.0, dx=0.5, t_max=0.02, dt=0.01)


def _coarse_data_grid():
    dt = 0.08
    return GridSpec(x0=-10.0, dx=20.0 / 256, nx=257,
                    t0=SINGULAR_OFFSET * dt, dt=dt, nt=500)


def _coarse_out_grid_p2():
    return GridSpec(x0=0.0, dx=1.0 / 32, nx=33,
                    t0=0.1, dt=3.9 / 32, nt=33)


def _coarse_out_grid_p1():
    return GridSpec(x0=0.25, dx=1.05 / 16, nx=17,
                    t0=0.1, dt=3.9 / 16, nt=17)


class TestDefaultGrids:
    def test_data_grid_shape_and_offset(self):
        g = default_data_grid()
        assert (g.nx, g.nt) == (513, 2000)
        assert g.x0 == -10.0 and g.dt == 0.02
        # first t node carries the singular-endpoint phase exactly
        assert g.t0 == SINGULAR_OFFSET * 0.02
        assert g.x0 + (g.nx - 1) * g.dx == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("problem,x_lo,x_hi", [
        ("P1", 0.25, 1.3),
        ("P2", 0.0, 1.0),
    ])
    def test_out_grid_windows(self, problem, x_lo, x_hi):
        g = default_out_grid(problem)
        assert (g.nx, g.nt) == (129, 129)
        assert g.x0 == x_lo
        assert g.x0 + (g.nx - 1) * g.dx == pytest.approx(x_hi, abs=1e-12)
        assert g.t0 == 0.1
        assert g.t0 + (g.nt - 1) * g.dt == pytest.approx(4.0, abs=1e-12)

    def test_out_grid_rejects_unknown_problem(self):
        with pytest.raises(ValueError, match=r"unknown test problem 'P9' "
                           r"\(have P1, P2\)"):
            default_out_grid("P9")

    @pytest.mark.parametrize("give_data,give_out", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_problem_inputs_default_only_the_grids_not_given(
            self, give_data, give_out):
        data = GridSpec(x0=-4.0, dx=0.25, nx=33, t0=0.05, dt=0.1, nt=40)
        out = _coarse_out_grid_p2()
        prob, dg, og, histories = problem_inputs(
            "p2", 0.02, data if give_data else None,
            out if give_out else None, noise_seed=5)
        assert prob is test_problem("P2")
        assert og == (out if give_out else default_out_grid("P2"))
        f, g = histories
        assert f.grid == g.grid == (data if give_data
                                    else default_data_grid())
        assert dg == f.grid
        want = noisy_histories(prob, f.grid, 0.02, 5)
        for got, ref in zip((f, g), want):
            assert np.array_equal(got.values, ref.values)

    def test_problem_inputs_name_an_unknown_problem_first(self,
                                                          monkeypatch):
        def no_default(*args):
            raise AssertionError("a grid default was asked for")
        monkeypatch.setattr(harness, "default_data_grid", no_default)
        monkeypatch.setattr(harness, "default_out_grid", no_default)
        with pytest.raises(ValueError, match="unknown test problem 'p9'"):
            problem_inputs("p9", 0.02)

    def test_run_experiment_defaults_to_the_default_grids(self):
        params = RegParams(epsilon=0.01, gamma=1.0)
        rec = run_experiment("P1", params, noise_seed=5)
        assert rec.data_grid == default_data_grid()
        assert rec.v_eps.grid == default_out_grid("P1")


class TestPerturb:
    def _field(self):
        g = GridSpec(x0=-2.0, dx=0.125, nx=33, t0=0.1, dt=0.1, nt=40)
        return sample(test_problem("P1").f0, g)

    def test_zero_epsilon_is_identity(self):
        # the draw is scaled to zeros, so the values are f's to the bit
        f = self._field()
        got = perturb(f, 0.0, seed=3)
        assert got.values.tobytes() == f.values.tobytes()

    def test_noise_has_exact_l2_size(self):
        f = self._field()
        for eps in (0.04, 1e-3, 2.5):
            noisy = perturb(f, eps, seed=11)
            noise = RealField(f.grid, noisy.values - f.values)
            assert l2_norm(noise) == pytest.approx(eps, rel=1e-12)

    def test_same_seed_reproduces_exactly(self):
        f = self._field()
        a = perturb(f, 0.02, seed=9)
        b = perturb(f, 0.02, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        f = self._field()
        a = perturb(f, 0.02, seed=9)
        b = perturb(f, 0.02, seed=10)
        assert not np.array_equal(a.values, b.values)

    def test_matches_the_literal_sum_and_leaves_its_input(self):
        f = self._field()
        before = f.values.copy()
        got = perturb(f, 0.02, seed=9)
        draw = np.random.Generator(np.random.Philox(9)).standard_normal(
            f.grid.shape)
        nrm = math.sqrt(f.grid.cell_area * float(np.sum(draw * draw)))
        want = f.values + draw * (0.02 / nrm)
        assert got.values.tobytes() == want.tobytes()
        assert np.array_equal(f.values, before)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            perturb(self._field(), -0.01, seed=0)


def test_noisy_histories_draw_f_and_g_from_separate_streams():
    g = GridSpec(x0=-2.0, dx=0.125, nx=33, t0=0.1, dt=0.1, nt=40)
    prob = test_problem("P1")
    f_n, g_n = noisy_histories(prob, g, 0.02, seed=5)
    want_f = perturb(sample(prob.f0, g), 0.02, 5)
    want_g = perturb(sample(prob.g0, g), 0.02, 5 + _G_SEED_OFFSET)
    np.testing.assert_array_equal(f_n.values, want_f.values)
    np.testing.assert_array_equal(g_n.values, want_g.values)


def test_noisy_histories_at_zero_noise_yield_the_clean_samples():
    g = GridSpec(x0=-2.0, dx=0.125, nx=33, t0=0.1, dt=0.1, nt=40)
    prob = test_problem("P1")
    got = list(noisy_histories(prob, g, 0.0, seed=5))
    assert len(got) == 2
    for field, fn in zip(got, (prob.f0, prob.g0)):
        np.testing.assert_array_equal(field.values, sample(fn, g).values)


def test_noisy_histories_keep_no_yielded_history():
    # the generator's frame holds no reference to f once it is yielded,
    # so f's array dies with its last outside reference, before g is drawn
    g = GridSpec(x0=-2.0, dx=0.125, nx=33, t0=0.1, dt=0.1, nt=40)
    histories = noisy_histories(test_problem("P1"), g, 0.02, seed=5)
    f = next(histories)
    f_values = weakref.ref(f.values)
    del f
    assert f_values() is None
    assert next(histories).grid == g


def test_noisy_histories_scan_each_history_once(monkeypatch):
    # the trace's bare values go into the draw and only the noisy sum
    # becomes a RealField, so its finiteness scan is the only one
    g = GridSpec(x0=-2.0, dx=0.125, nx=33, t0=0.1, dt=0.1, nt=40)
    made = []
    post_init = RealField.__post_init__

    def counting(self):
        made.append(self.grid == g)
        post_init(self)

    monkeypatch.setattr(RealField, "__post_init__", counting)
    for history in noisy_histories(test_problem("P1"), g, 0.02, seed=5):
        assert history.grid == g
        assert made.count(True) == 1
        made.clear()


def test_noisy_histories_name_a_nonfinite_node():
    g = GridSpec(x0=-2.0, dx=0.125, nx=33, t0=0.1, dt=0.1, nt=40)
    x, t = g.x_nodes()[3], g.t_nodes()[5]
    prob = SimpleNamespace(
        f0=lambda xs, ts: np.where((xs >= x) & (ts >= t), np.nan, xs * ts),
        g0=test_problem("P1").g0)
    with pytest.raises(ValueError, match=r"\(i=3, j=5\), x=%s, t=%s$"
                       % ("%.17g" % x, "%.17g" % t)):
        next(noisy_histories(prob, g, 0.02, seed=5))


def _warm_peak_bytes(run):
    """Traced peak of a second call of run, above what was allocated
    before it; the first call loads modules and FFT plan caches."""
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestOneHistoryAtATime:
    # f is transformed and dropped before g is drawn, and each history's
    # noise is scaled before its trace is sampled, so no more than about
    # two data-grid arrays are alive at once: the draw beside its norm's
    # temporary, or beside the clean trace. Holding both histories, as a
    # (f, g) pair or a for-loop consumer's loop variable does, reads 3 to 4
    _DATA = default_data_grid(nx=257, nt=1000, dt=0.04)
    _LIMIT = 2.5 * 8 * _DATA.nx * _DATA.nt

    def test_run_experiment(self):
        params = RegParams(epsilon=0.02, gamma=1.0)
        assert _warm_peak_bytes(lambda: run_experiment(
            "P1", params, self._DATA, default_out_grid("P1"),
            noise_seed=3)) < self._LIMIT

    def test_sinc_command(self, tmp_path):
        argv = ["sinc", "--problem", "p1", "--epsilon", "0.02", "--N", "3",
                "--data-grid", harness._grid_str(self._DATA),
                "--out", str(tmp_path)]
        rcs = []
        peak = _warm_peak_bytes(lambda: rcs.append(main(argv)))
        assert rcs == [0, 0]
        assert peak < self._LIMIT


class TestNoiseStreamFixture:
    def test_philox_draw_matches_checked_in_field(self):
        # pins the noise stream bit-for-bit against a stored draw; Philox
        # output is specified to be platform- and version-stable, so a
        # mismatch here means reruns of published experiments would not
        # reproduce their manifests
        path = os.path.join(os.path.dirname(__file__), "data",
                            "philox_noise.grd")
        fixture = read_field(path)
        base = RealField(fixture.grid, np.zeros(fixture.grid.shape))
        regen = perturb(base, 0.25, seed=424242)
        np.testing.assert_array_equal(regen.values, fixture.values)
        assert l2_norm(regen) == pytest.approx(0.25, rel=1e-12)


@pytest.fixture(scope="module")
def refined_setup():
    window = GridSpec(x0=0.25, dx=(1.3 - 0.25) / 20, nx=21,
                      t0=0.5, dt=3.0 / 20, nt=21)
    in_grid, out_grid = refined_window_grid(window)
    return window, in_grid, out_grid


class TestRefinedWindowGrid:
    def test_rejects_nonpositive_start(self):
        bad = GridSpec(x0=0.0, dx=0.1, nx=11, t0=0.0, dt=0.1, nt=11)
        with pytest.raises(ValueError, match="positive t"):
            refined_window_grid(bad)

    def test_out_grid_refines_the_window(self, refined_setup):
        window, in_grid, out_grid = refined_setup
        k = window.dt / out_grid.dt
        assert abs(k - round(k)) < 1e-9
        k = int(round(k))
        assert 4 <= k <= 48
        assert out_grid.nt == (window.nt - 1) * k + 1
        assert out_grid.x0 == window.x0 and out_grid.nx == window.nx
        assert out_grid.t0 == window.t0
        # every window t node survives on the refined lattice
        np.testing.assert_allclose(out_grid.t_nodes()[::k],
                                   window.t_nodes(), rtol=0, atol=1e-12)

    def test_in_grid_contains_out_grid_with_x_padding(self, refined_setup):
        window, in_grid, out_grid = refined_setup
        assert in_grid.dt == out_grid.dt
        assert 0.0 < in_grid.t0 < in_grid.dt  # first positive lattice node
        ox, ot = _lattice_offsets(out_grid, in_grid)
        assert ox >= 0 and ot >= 0
        assert ox + out_grid.nx <= in_grid.nx
        assert ot + out_grid.nt <= in_grid.nt
        assert window.x0 - in_grid.x0 >= 10.0 - 1e-9

    def test_lattice_phase_sits_near_the_singular_offset(self, refined_setup):
        _, in_grid, _ = refined_setup
        phase = (in_grid.t0 / in_grid.dt) % 1.0
        # the K scan cannot always hit theta exactly; 45 candidate phases
        # over [0,1) leave a worst case well under 0.1
        assert abs(phase - SINGULAR_OFFSET) < 0.1


@pytest.fixture(scope="module")
def identity_fields(refined_setup):
    _, in_grid, out_grid = refined_setup
    out = {}
    for pid in ("P1", "P2"):
        prob = test_problem(pid)
        out[pid] = (sample(prob.v_exact, in_grid),
                    sample(prob.f0, in_grid),
                    sample(prob.g0, in_grid))
    return in_grid, out_grid, out


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counter of harness's kernel_eval calls, per kernel."""
    calls = Counter()

    def counting(spec, x, t):
        calls[spec] += 1
        return kernel_eval(spec, x, t)

    monkeypatch.setattr(harness, "kernel_eval", counting)
    return calls


class TestIdentityResidual:
    def test_p1_residual_small_on_refined_lattice(self, identity_fields):
        _, out_grid, fields = identity_fields
        v, f, g = fields["P1"]
        assert identity_residual(v, f, g, out_grid) <= 1e-2

    def test_p2_residual_vanishes_identically(self, identity_fields):
        # P2 has f = 0 and v = -g to the bit, so the defect is S*(v + g),
        # the convolution of an exactly zero field: 0 for any kernel
        _, out_grid, fields = identity_fields
        v, f, g = fields["P2"]
        assert identity_residual(v, f, g, out_grid) < 1e-12

    def test_p2_sign_flip_doubles_the_residual(self, identity_fields):
        # with v = +g0 instead of -g0 the two sides are exact negatives,
        # so the relative defect is 2 to rounding: the check can fail
        _, out_grid, fields = identity_fields
        _, f, g = fields["P2"]
        assert identity_residual(g, f, g, out_grid) == pytest.approx(
            2.0, abs=1e-12)

    @pytest.mark.parametrize("c", [1.1, 2.5])
    def test_a_wrong_kernel_fails_p1_only(self, identity_fields,
                                          monkeypatch, c):
        # P1's residual is the one that can catch a wrong S; P2 has f = 0,
        # so both sides are the same S*g up to sign for any kernel
        _, out_grid, fields = identity_fields
        monkeypatch.setattr(harness, "S_SPEC", KernelSpec(c))
        assert identity_residual(*fields["P1"], out_grid) > 1e-2
        assert identity_residual(*fields["P2"], out_grid) == 0.0

    @pytest.mark.parametrize("pid,want", [
        ("P1", {S_SPEC: 1, R_SPEC: 1}),
        # P2's f is 0 and its v is -g, so no lag box is formed
        ("P2", {}),
    ])
    def test_each_kernel_is_evaluated_once(self, identity_fields,
                                           kernel_calls, pid, want):
        # S*v and S*g share S's lag box and its spectrum
        _, out_grid, fields = identity_fields
        identity_residual(*fields[pid], out_grid)
        assert kernel_calls == want

    @pytest.mark.parametrize("pid", ["P1", "P2"])
    def test_is_the_defect_of_the_one_field_convolutions(self,
                                                         identity_fields,
                                                         pid):
        _, out_grid, fields = identity_fields
        v, f, g = fields[pid]
        assert identity_residual(v, f, g, out_grid) == \
            _explicit_defect(v, f, g, out_grid)

    def test_p2_defect_is_exactly_zero_without_a_lag_box(self,
                                                         identity_fields,
                                                         kernel_calls):
        _, out_grid, fields = identity_fields
        v, f, g = fields["P2"]
        assert not f.values.any() and np.array_equal(v.values, -g.values)
        got = identity_residual(v, f, g, out_grid)
        assert got == 0.0 and type(got) is float
        assert sum(kernel_calls.values()) == 0

    @pytest.mark.parametrize("case,want_calls", [
        # v = -g except one node moved by one ulp; R*f of the zero f is
        # formed too
        ("ulp", {S_SPEC: 1, R_SPEC: 1}),
        # v = -g with a nonzero f (P1's f0)
        ("nonzero-f", {S_SPEC: 1, R_SPEC: 1}),
        # v = +g: S*v and S*g share one lag box, and the defect reads 2
        ("plus-g", {S_SPEC: 1, R_SPEC: 1}),
    ])
    def test_p2_variants_take_the_convolutions(self, identity_fields,
                                               kernel_calls, case,
                                               want_calls):
        _, out_grid, fields = identity_fields
        v, f, g = fields["P2"]
        if case == "ulp":
            vals = v.values.copy()
            i, j = vals.shape[0] // 2, vals.shape[1] // 2
            vals[i, j] = np.nextafter(vals[i, j], np.inf)
            v = RealField(v.grid, vals)
        elif case == "nonzero-f":
            f = fields["P1"][1]
        else:
            v = g
        want = _explicit_defect(v, f, g, out_grid)
        kernel_calls.clear()
        assert identity_residual(v, f, g, out_grid) == want
        assert kernel_calls == want_calls
        if case == "plus-g":
            assert want == pytest.approx(2.0, abs=1e-12)

    def test_holds_no_spectrum_past_its_use(self):
        # verify --quick's P1 window: an FFT lattice of 675 x 1000, so one
        # spectrum is 675 x 501 complex values. The peak is about 3.1 of
        # them: the kernel's spectrum, beside a field's and rfft2's padded
        # copy of that field. Keeping a product past its inverse, the lag
        # box past its transform, or another spectrum across R*f reads 3.6
        # or more
        n = 33
        window = GridSpec(x0=0.25, dx=1.05 / (n - 1), nx=n,
                          t0=0.1, dt=3.9 / (n - 1), nt=n)
        in_grid, out_grid = refined_window_grid(window)
        prob = test_problem("P1")
        fields = [sample(fn, in_grid)
                  for fn in (prob.v_exact, prob.f0, prob.g0)]
        peak = _warm_peak_bytes(lambda: identity_residual(*fields, out_grid))
        assert peak < 3.4 * 16 * 675 * 501

    def test_rejects_mismatched_grids(self, identity_fields):
        in_grid, out_grid, fields = identity_fields
        v, f, g = fields["P1"]
        other = GridSpec(x0=in_grid.x0, dx=in_grid.dx, nx=in_grid.nx,
                         t0=in_grid.t0, dt=in_grid.dt, nt=in_grid.nt - 1)
        f_bad = RealField(other, f.values[:, :-1])
        with pytest.raises(ValueError, match="share a grid"):
            identity_residual(v, f_bad, g, out_grid)

    def test_rejects_out_grid_outside_data(self, identity_fields):
        in_grid, out_grid, fields = identity_fields
        v, f, g = fields["P1"]
        shifted = GridSpec(x0=out_grid.x0 - in_grid.dx * in_grid.nx,
                           dx=out_grid.dx, nx=out_grid.nx,
                           t0=out_grid.t0, dt=out_grid.dt, nt=out_grid.nt)
        with pytest.raises(ValueError, match="inside the data grid"):
            identity_residual(v, f, g, shifted)

    def test_p2_grids_are_checked_before_the_zero_defect(self,
                                                         identity_fields):
        # f = 0 and v = -g node for node, but the grids are refused all
        # the same
        in_grid, out_grid, fields = identity_fields
        v, f, g = fields["P2"]
        moved = GridSpec(x0=in_grid.x0 + in_grid.dx, dx=in_grid.dx,
                         nx=in_grid.nx, t0=in_grid.t0, dt=in_grid.dt,
                         nt=in_grid.nt)
        with pytest.raises(ValueError, match="share a grid"):
            identity_residual(RealField(moved, v.values), f, g, out_grid)
        shifted = GridSpec(x0=out_grid.x0 - in_grid.dx * in_grid.nx,
                           dx=out_grid.dx, nx=out_grid.nx,
                           t0=out_grid.t0, dt=out_grid.dt, nt=out_grid.nt)
        with pytest.raises(ValueError, match="inside the data grid"):
            identity_residual(v, f, g, shifted)


def _explicit_defect(v, f, g, out_grid):
    """identity_residual's defect written out from the reference
    identity_rhs and convolve2_causal, with no shortcut."""
    rhs = identity_rhs(f, g, out_grid).values
    lhs = convolve2_causal(S_SPEC, v, out_grid).values
    num = math.sqrt(out_grid.cell_area * float(np.sum((lhs - rhs) ** 2)))
    den = math.sqrt(out_grid.cell_area * float(np.sum(rhs ** 2)))
    return num / max(den, np.finfo(float).tiny)


class TestSymbolValidation:
    def test_empty_point_list_is_vacuous(self):
        assert _symbol_rows(points=[], **_TINY_BOX) == []

    def test_origin_uses_the_substituted_mass_quadrature(self):
        # the origin bypasses the (here uselessly small) box integral, so
        # the error is the mass quadrature's, a few parts in 1e6
        [row] = _symbol_rows(points=[(0.0, 0.0)], **_TINY_BOX)
        assert row.rel_err < 1e-4

    def test_injected_wrong_symbol_is_caught(self):
        wrong = lambda z, r: 1.05 * s_hat(z, r)
        [row] = _symbol_rows(points=[(0.0, 0.0)], closed_form=wrong,
                             **_TINY_BOX)
        assert row.rel_err > 0.04

    def test_vanishing_closed_form_warns_and_skips(self):
        with pytest.warns(UserWarning, match="vanished"):
            [row] = _symbol_rows(points=[(0.0, 0.0)],
                                 closed_form=lambda z, r: 0.0, **_TINY_BOX)
        assert row.rel_err == 0.0

    def test_box_sums_match_a_direct_double_sum_per_point(self):
        # 4101 t nodes span 17 t blocks, the last one partial; r repeats,
        # changes sign and is 0
        box = dict(x_half=1.0, dx=0.25, t_max=41.01, dt=0.01)
        pts = [(1.0, 0.5), (-2.0, 0.5), (0.0, -1.5), (0.7, 0.0), (0.0, 0.0)]
        rows = _symbol_rows(points=pts, **box)
        xs = -1.0 + 0.25 * np.arange(9)
        ts = (np.arange(4101) + SINGULAR_OFFSET) * 0.01
        kv = kernel_eval(S_SPEC, xs[:, None], ts[None, :])
        for row, (z, r) in zip(rows, pts[:-1]):
            phase = np.exp(-1j * (z * xs[:, None] + r * ts[None, :]))
            direct = np.sum(kv * phase) * 0.25 * 0.01 / (2.0 * math.pi)
            assert (row.z, row.r) == (z, r)
            assert abs(row.numeric - direct) <= 1e-12 * abs(direct)

    @pytest.mark.parametrize("nt", [harness._SYMBOL_T_BLOCK - 27,
                                    harness._SYMBOL_T_BLOCK,
                                    harness._SYMBOL_T_BLOCK + 41])
    def test_box_sums_over_t_blocks_match_a_direct_double_sum(self, nt):
        # under one block of t nodes, exactly one block, and one block
        # plus a remainder: the blocks regroup the t sum and drop no node
        dx, dt = 0.25, 0.01
        pts = [(1.0, 0.5), (-0.5, -1.5), (0.7, 0.0), (0.0, 1.0)]
        rows = _symbol_rows(points=pts, x_half=1.0, dx=dx, t_max=nt * dt,
                            dt=dt)
        xs = dx * np.arange(-4, 5)
        ts = (np.arange(nt) + SINGULAR_OFFSET) * dt
        for row, (z, r) in zip(rows, pts):
            direct = 0.0
            for x in xs:
                for t in ts:
                    direct += kernel_eval(S_SPEC, x, t) \
                        * np.exp(-1j * (z * x + r * t))
            direct *= dx * dt / (2.0 * math.pi)
            assert (row.z, row.r) == (z, r)
            assert abs(row.numeric - direct) <= 1e-13 * abs(direct)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 12), st.floats(0.05, 0.5), st.integers(1, 400),
           st.floats(0.005, 0.1),
           st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                    min_size=1, max_size=3),
           st.floats(0.1, 3.0))
    def test_folded_sum_is_the_full_box_sum(self, n_half, dx, nt, dt, pts,
                                            z_axis):
        # the fold onto x >= 0 is the full symmetric double sum, and on the
        # r = 0 axis its imaginary part is exactly zero
        pts = pts + [(z_axis, 0.0), (-z_axis, 0.0)]
        rows = _symbol_rows(points=pts, x_half=n_half * dx, dx=dx,
                            t_max=nt * dt, dt=dt)
        xs = dx * np.arange(-n_half, n_half + 1)
        ts = (np.arange(nt) + SINGULAR_OFFSET) * dt
        kv = kernel_eval(S_SPEC, xs[:, None], ts[None, :])
        for row, (z, r) in zip(rows, pts):
            assert (row.z, row.r) == (z, r)
            if z == 0.0 and r == 0.0:
                continue
            phase = np.exp(-1j * (z * xs[:, None] + r * ts[None, :]))
            direct = np.sum(kv * phase) * dx * dt / (2.0 * math.pi)
            assert abs(row.numeric - direct) <= 1e-12 * abs(direct)
            if r == 0.0:
                assert row.numeric.imag == 0.0

    @pytest.mark.parametrize("x_half,dx", [(1.0, 0.3), (1.0, 0.4),
                                           (-1.0, 0.5)])
    def test_box_off_the_step_lattice_is_refused(self, x_half, dx):
        # the fold onto x >= 0 needs x = 0 as a node and a mirror for every
        # other node; 1/0.4 = 2.5 steps would give a symmetric box without
        # x = 0, 1/0.3 an asymmetric one
        with pytest.raises(ValueError, match=r"x_half = %g .* dx = %g"
                           % (x_half, dx)):
            _symbol_rows(points=[(1.0, 0.0)], x_half=x_half, dx=dx,
                         t_max=0.02, dt=0.01)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 3.0), st.floats(-3.0, 3.0))
    def test_mirrored_z_gives_the_same_bits(self, z, r):
        # z and -z share one row w_x cos(|z| x) of the x-first sum
        box = dict(x_half=1.0, dx=0.25, t_max=2.0, dt=0.01)
        plus, minus = _symbol_rows(points=[(z, r), (-z, r)], **box)
        assert plus.numeric == minus.numeric
        assert (plus.z, minus.z) == (z, -z)

    def test_shorthand_modulus_agrees_at_unit_z_only(self):
        rows = _symbol_rows(points=[(1.0, 0.0), (2.0, 0.0)], **_TINY_BOX)
        by_z = {row.z: row for row in rows}
        assert by_z[1.0].shorthand_dev < 1e-12
        assert by_z[2.0].shorthand_dev > 0.8
        assert by_z[2.0].shorthand == pytest.approx(2.0 * math.exp(-4.0),
                                                    rel=1e-15)


# the reconstruction's own stages; a check that reaches one can no longer
# catch it
_FAST_PATH = {"plan", "dft2_lattice", "continue_sideways",
              "reconstruct_spectrum", "reconstruct", "idft2_windowed_at",
              "tail_energy"}


def _names_reached(tree, roots):
    """Every name the module-level functions in roots use, following calls
    to the module's other functions and resolving import aliases."""
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    alias = {a.asname or a.name: a.name for n in tree.body
             if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    names, todo, seen = set(), list(roots), set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            if isinstance(node, ast.Name):
                names.add(alias.get(node.id, node.id))
                if node.id in defs:
                    todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.name for a in node.names)
    return names


def test_check_path_shares_no_code_with_the_fast_path():
    tree = ast.parse(inspect.getsource(harness))
    reached = _names_reached(tree, ["_symbol_rows", "kappa_calibration",
                                    "identity_residual",
                                    "refined_window_grid", "kernel_l1_norm"])
    assert {"convolve2_causal", "dft2_forward"} <= reached
    assert reached & _FAST_PATH == set()


def test_verify_checks_share_no_code_with_the_fast_path():
    tree = ast.parse(inspect.getsource(harness))
    reached = _names_reached(tree, ["verify_checks"])
    assert {"_symbol_rows", "kappa_calibration", "identity_residual",
            "kernel_l1_norm"} <= reached
    assert reached & _FAST_PATH == set()


_VERIFY_ROWS = ["symbol closed form vs quadrature",
                "kernel L1 norms vs 4*pi/sqrt(c)",
                "transform factor 2*pi vs 1",
                "convolution identity residual"]


@pytest.fixture(scope="module")
def quick_report():
    return harness.verify_checks(quick=True)


class TestVerifyChecks:
    def test_quick_records_in_table_order(self, quick_report):
        assert [rec.name for rec in quick_report.records] == _VERIFY_ROWS
        assert all(rec.passed for rec in quick_report.records)
        assert quick_report.passed
        assert [pid for pid, _ in quick_report.identity] == ["P1", "P2"]

    def test_record_values_are_the_direct_calls(self, quick_report):
        symbol, masses, kappa, ident = quick_report.records
        rows = _symbol_rows(harness.QUICK_SYMBOL_POINTS, x_half=40.0,
                            dx=0.05, t_max=200.0, dt=0.01)
        assert rows == quick_report.symbol_rows
        assert symbol.value == max(row.rel_err for row in rows)
        masses_by_c = {1.0: 4 * math.pi, 4.0: 2 * math.pi, 16.0: math.pi}
        assert masses.value == max(
            abs(harness.kernel_l1_norm(KernelSpec(c)) - mass) / mass
            for c, mass in masses_by_c.items())
        res_2pi, res_one = harness.kappa_calibration(
            default_data_grid(nx=257, nt=800, dt=0.05))
        assert kappa.value == res_one / res_2pi
        resid = []
        for pid, x_lo, x_hi in (("P1", 0.25, 1.3), ("P2", 0.0, 1.0)):
            prob = test_problem(pid)
            window = GridSpec(x0=x_lo, dx=(x_hi - x_lo) / 32, nx=33,
                              t0=0.1, dt=3.9 / 32, nt=33)
            in_grid, out_grid = refined_window_grid(window)
            resid.append(identity_residual(
                *(sample(fn, in_grid)
                  for fn in (prob.v_exact, prob.f0, prob.g0)), out_grid))
        assert quick_report.identity == (("P1", resid[0]), ("P2", resid[1]))
        assert ident.value == max(resid)
        assert [rec.limit for rec in quick_report.records] == [
            1e-3, 1e-3, 10.0, 1e-2]

    def test_corrupted_symbol_flips_the_symbol_record_only(self,
                                                           quick_report):
        broken = harness.verify_checks(
            quick=True, closed_form=lambda z, r: 1.05 * s_hat(z, r))
        assert [rec.passed for rec in broken.records] == [
            False, True, True, True]
        assert not broken.passed
        assert broken.records[0].value > 0.04
        assert broken.records[1:] == quick_report.records[1:]


class TestVerifyFailsOnNan:
    """max() drops a nan that is not first; each row must fail on one."""

    def _assert_only_row_fails(self, report, index):
        assert [rec.passed for rec in report.records] == [
            i != index for i in range(len(_VERIFY_ROWS))]
        assert math.isnan(report.records[index].value)
        assert not report.passed

    def test_symbol_row(self):
        last = harness.QUICK_SYMBOL_POINTS[-1]
        nan_last = lambda z, r: math.nan if (z, r) == last else s_hat(z, r)
        report = harness.verify_checks(quick=True, closed_form=nan_last)
        assert math.isnan(report.symbol_rows[-1].rel_err)
        self._assert_only_row_fails(report, 0)

    @staticmethod
    def _nan_symbol_at_last(monkeypatch):
        # verify's own symbol; kappa_calibration's grid call passes through
        last = harness.QUICK_SYMBOL_POINTS[-1]
        monkeypatch.setattr(harness, "s_hat", lambda z, r: (
            math.nan if np.ndim(z) == 0 and (z, r) == last else s_hat(z, r)))

    @staticmethod
    def _nan_mass_at_c16(monkeypatch):
        mass = harness.kernel_l1_norm
        monkeypatch.setattr(harness, "kernel_l1_norm", lambda spec: (
            math.nan if spec.c == 16.0 else mass(spec)))

    @staticmethod
    def _nan_identity_at_p1(monkeypatch):
        resid, calls = harness.identity_residual, []

        def first_nan(*args):
            calls.append(args)
            return math.nan if len(calls) == 1 else resid(*args)
        monkeypatch.setattr(harness, "identity_residual", first_nan)

    def test_mass_row(self, monkeypatch):
        self._nan_mass_at_c16(monkeypatch)
        self._assert_only_row_fails(harness.verify_checks(quick=True), 1)

    def test_identity_row(self, monkeypatch):
        self._nan_identity_at_p1(monkeypatch)
        report = harness.verify_checks(quick=True)
        assert math.isnan(report.identity[0][1])
        self._assert_only_row_fails(report, 3)

    @pytest.mark.parametrize("patch,row", [
        ("_nan_symbol_at_last", "symbol closed form vs quadrature"),
        ("_nan_mass_at_c16", "kernel L1 norms vs 4*pi/sqrt(c)"),
        ("_nan_identity_at_p1", "convolution identity residual")])
    def test_verify_exits_1(self, monkeypatch, capsys, patch, row):
        getattr(self, patch)(monkeypatch)
        assert main(["verify", "--quick"]) == 1
        out = capsys.readouterr().out
        assert [ln.split("  FAIL  ")[0].strip() for ln in out.splitlines()
                if "  FAIL  " in ln] == [row]
        assert out.rstrip().endswith("overall: FAIL")


def test_kappa_calibration_takes_f_hat_in_closed_form(monkeypatch):
    # verify --quick's data grid; F = S*v0 = 4 pi f0 on P1, so F_hat is
    # 4 pi times f0's transform, and no causal convolution is formed
    dg = default_data_grid(nx=257, nt=800, dt=0.05)
    prob = test_problem("P1")
    f0 = sample(prob.f0, dg)
    window = region_for(RegParams(epsilon=0.01, gamma=1.0))
    sg = GridSpec.centered(window.zmax, 205, window.rmax, 205)
    want = harness.dft2_forward(identity_rhs(f0, sample(prob.g0, dg)),
                                sg).values
    convolutions, spectra = [], []
    convolve_each = harness._convolve2_causal_each
    dft2_forward = harness.dft2_forward

    def counted(*args):
        convolutions.append(args)
        return convolve_each(*args)

    def kept(field, grid):
        out = dft2_forward(field, grid)
        spectra.append((field, out.values))
        return out

    monkeypatch.setattr(harness, "_convolve2_causal_each", counted)
    monkeypatch.setattr(harness, "dft2_forward", kept)
    res_2pi, res_one = harness.kappa_calibration(dg)
    assert convolutions == []
    [f_hat] = [4.0 * math.pi * spec for field, spec in spectra
               if np.array_equal(field.values, f0.values)]
    assert np.linalg.norm(f_hat - want) <= 3e-3 * np.linalg.norm(want)
    assert res_one / res_2pi >= 10.0


def test_kappa_calibration_residuals_on_the_quick_grid():
    # verify --quick's data grid: P1's traces are even in x to the bit,
    # so both transforms fold onto x >= 0; the residuals are those of the
    # unfolded sum to rounding (figures of the unfolded code, numpy 2.4)
    dg = default_data_grid(nx=257, nt=800, dt=0.05)
    res_2pi, res_one = harness.kappa_calibration(dg)
    assert res_2pi == pytest.approx(0.05591152705664961, rel=1e-13)
    assert res_one == pytest.approx(0.8402282603920567, rel=1e-13)


@pytest.mark.parametrize("dg", [
    default_data_grid(), default_data_grid(nx=257, nt=800, dt=0.05)],
    ids=["full", "quick"])
def test_kappa_calibration_folds_both_transforms_on_verify_grids(monkeypatch,
                                                                 dg):
    # on verify's two data grids both of P1's transforms take the folded
    # sum, which forms no complex exponential e^{-izx}; a grid that stopped
    # folding would give the same residuals to rounding from the full sum,
    # about four times the arithmetic
    dft2_forward = harness.dft2_forward
    folded = []

    def without_exp(field, grid):
        with monkeypatch.context() as m:
            m.setattr(np, "exp", None)
            out = dft2_forward(field, grid)
        folded.append(field.grid)
        return out

    monkeypatch.setattr(harness, "dft2_forward", without_exp)
    harness.kappa_calibration(dg)
    assert folded == [dg, dg]


def test_transform_imports_neither_scipy_nor_kernels():
    for node in ast.walk(ast.parse(inspect.getsource(transform))):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = ([node.module] if node.module
                    else [a.name for a in node.names])
        else:
            continue
        for mod in mods:
            assert mod.split(".")[0] != "scipy", mod
            assert mod not in ("kernels", "sidecast.kernels"), mod


@pytest.fixture(scope="module")
def p2_run(tmp_path_factory):
    cfg = SimpleNamespace(
        problem="P2",
        params=RegParams(epsilon=0.02, gamma=1.0),
        data_grid=_coarse_data_grid(),
        out_grid=_coarse_out_grid_p2(),
        noise_seed=7,
    )
    dir_a = tmp_path_factory.mktemp("run_a")
    dir_b = tmp_path_factory.mktemp("run_b")
    res_a, res_b = (run_experiment(cfg.problem, cfg.params, cfg.data_grid,
                                   cfg.out_grid, cfg.noise_seed)
                    for _ in range(2))
    write_run(str(dir_a), res_a, ["problem=P2"], cfg.noise_seed)
    write_run(str(dir_b), res_b, ["problem=P2"], cfg.noise_seed)
    return cfg, res_a, res_b, dir_a, dir_b


class TestRunExperiment:
    def test_reconstruction_is_close_on_coarse_grids(self, p2_run):
        cfg, res, _, _, _ = p2_run
        exact = sample(test_problem("P2").v_exact, cfg.out_grid)
        assert res.measured_error / l2_norm(exact) < 0.3

    def test_bound_dominates_measured_error(self, p2_run):
        _, res, _, _, _ = p2_run
        assert res.eta_hat is not None and res.eta_hat > 0.0
        assert res.measured_error < res.bound_l2

    def test_artifacts_written(self, p2_run):
        _, _, _, dir_a, _ = p2_run
        for name in ("v_eps.grd", "v_eps.csv", "manifest.txt"):
            assert (dir_a / name).is_file()

    def test_manifest_records_the_run_without_wall_clock(self, p2_run):
        cfg, _, _, dir_a, _ = p2_run
        text = (dir_a / "manifest.txt").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "problem=P2"
        assert "mode=l2" in lines
        assert ("epsilon=%s" % ("%.17g" % 0.02)) in lines
        assert not any(ln.startswith("kappa=") for ln in lines)
        assert any(ln.startswith("b_eps=") for ln in lines)
        assert any(ln.startswith("measured_error=") for ln in lines)
        assert "runtime" not in text

    def test_reruns_are_byte_identical(self, p2_run):
        _, _, _, dir_a, dir_b = p2_run
        for name in ("v_eps.grd", "v_eps.csv", "manifest.txt"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_grd_round_trips_the_field(self, p2_run):
        cfg, res, _, dir_a, _ = p2_run
        back = read_field(str(dir_a / "v_eps.grd"))
        assert back.grid == cfg.out_grid
        np.testing.assert_array_equal(back.values, res.v_eps.values)

    def test_noiseless_composition_beats_the_bound(self, p2_run):
        # there is no epsilon=0 parameter set; the noiseless study runs by
        # feeding unperturbed samples through the same pipeline, and the
        # bound (valid for any noise level up to epsilon) still applies
        cfg, _, _, _, _ = p2_run
        prob = test_problem("P1")
        og = _coarse_out_grid_p1()
        f0 = sample(prob.f0, cfg.data_grid)
        g0 = sample(prob.g0, cfg.data_grid)
        rec = reconstruct((f0, g0), cfg.params, cfg.data_grid, og,
                          v_exact=prob.v_exact)
        measured = l2_distance(rec.v_eps, sample(prob.v_exact, og))
        assert rec.eta_hat is not None
        assert measured < rec.bound_l2

    def test_run_is_the_library_reconstruction(self, p2_run):
        cfg, res, _, _, _ = p2_run
        prob = test_problem(cfg.problem)
        f, g = noisy_histories(prob, cfg.data_grid, cfg.params.epsilon,
                               cfg.noise_seed)
        rec = reconstruct((f, g), cfg.params, cfg.data_grid, cfg.out_grid,
                          v_exact=prob.v_exact)
        np.testing.assert_array_equal(rec.v_eps.values, res.v_eps.values)
        assert (rec.eta_hat, rec.bound_l2, rec.measured_error) == \
            (res.eta_hat, res.bound_l2, res.measured_error)


def test_p1_at_small_epsilon_stays_accurate():
    # at eps = 1e-8 the window reaches r ~ 5e3; a spectral grid whose alias
    # period in t falls below the data's t-extent (40) folds shifted copies
    # of the data into the output window, and the error here is then ~3.5
    params = RegParams(epsilon=1e-8, gamma=1.0)
    res = run_experiment("P1", params, noise_seed=0)
    assert res.measured_error < 0.3


def test_p2_holds_globally_in_time_across_the_data():
    # the paper recovers v globally in time: bands of width 4 that tile
    # the data's t range each stay under the run's bound and within 5% of
    # |v| (relative 0.038 in the first band, 0.009-0.027 after it)
    params = RegParams(epsilon=0.02, gamma=1.0)
    v_exact = test_problem("P2").v_exact
    for k in range(10):
        t0, t1 = 0.1 + 4 * k, min(4.1 + 4 * k, 39.0)
        og = GridSpec(0.0, 1.0 / 64, 65, t0, (t1 - t0) / 64, 65)
        rec = run_experiment("P2", params, out_grid=og, noise_seed=3)
        assert rec.measured_error <= rec.bound_l2
        assert rec.measured_error <= 0.05 * l2_norm(sample(v_exact, og)), k



def _forbid_noise(monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused run drew noise")
    monkeypatch.setattr(harness, "_noisy", refuse)


@pytest.mark.parametrize("run,match", [
    # at eps = 1e-10, gamma = 1.9 the window reaches r = 421.9 > pi/dt
    (lambda: run_experiment("P1", RegParams(epsilon=1e-10, gamma=1.9)),
     "Nyquist"),
    # t in [0.5, 160.5] spans two alias periods of the default data grid
    (lambda: run_experiment("P2", RegParams(epsilon=0.02, gamma=1.0),
                            out_grid=GridSpec(0.0, 0.25, 5, 0.5, 2.5, 65)),
     "alias period"),
    # t in [45, 60] lies past the last data node
    (lambda: run_experiment("P2", RegParams(epsilon=0.02, gamma=1.0),
                            out_grid=GridSpec(0.0, 0.0078125, 129, 45.0,
                                              0.1171875, 129)),
     "leaves the data interval"),
    # only the third level is refused, and no level runs before it is
    (lambda: convergence_table("P1", 1.0, [0.04, 0.02, 1e-40]), "Nyquist"),
], ids=["nyquist", "alias", "late-window", "convergence"])
def test_a_refused_run_draws_no_noise(monkeypatch, run, match):
    _forbid_noise(monkeypatch)
    with pytest.raises(ValueError, match=match):
        run()


def test_a_refused_sinc_box_draws_no_noise(monkeypatch, tmp_path, capsys):
    _forbid_noise(monkeypatch)
    out = tmp_path / "sinc"
    rc = main(["sinc", "--problem", "p2", "--epsilon", "0.02", "--N", "10",
               "--grid", "5,65,0,0.25,0.5,2.5", "--out", str(out)])
    assert rc == 2
    assert "alias period" in capsys.readouterr().err
    assert not out.exists()


class TestConvergenceTable:
    def test_rows_and_csv(self, tmp_path):
        rows = convergence_table("P1", 1.0, [0.02, 0.04], seed=3,
                                 data_grid=_coarse_data_grid(),
                                 out_grid=_coarse_out_grid_p1())
        assert [row.params.epsilon for row in rows] == [0.04, 0.02]
        for row in rows:
            assert row.measured_error < row.bound_l2
            assert row.eta_hat > 0.0
        path = tmp_path / "conv.csv"
        write_convergence_csv(rows, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epsilon,measured_error,bound,eta_hat"
        assert len(lines) == 3
        got = [float(v) for v in lines[1].split(",")]
        assert got[0] == rows[0].params.epsilon
        assert got[1] == rows[0].measured_error
