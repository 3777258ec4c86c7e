"""Cardinal functions, index lattices, expansion building/evaluation, and
the text serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecast.fields import GridSpec, sample
from sidecast.regularizer import RegMode, RegParams, cutoff_hm, cutoff_l2
from sidecast.sinc import (IndexSetKind, SincExpansion, band_halfwidth,
                           build_expansion, cardinal, eval_expansion,
                           index_lattice, lattice_expansion, read_expansion,
                           sinc_lattice, sinc_mesh, spectral_expansion,
                           write_expansion)
from sidecast.transform import (SpectralWindow, dft2_forward, idft2_windowed,
                                idft2_windowed_at)


def test_cardinal_values():
    assert cardinal(0, 1.0, 0.0) == 1.0
    assert cardinal(2, 0.5, 1.0) == 1.0
    assert abs(cardinal(1, 0.5, 1.0)) < 1e-15
    # midpoint between nodes: sinc(1/2) = 2/pi
    assert cardinal(0, 1.0, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        cardinal(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cardinal(0, -1.0, 1.0)


def test_cardinal_is_kronecker_on_the_lattice():
    d = 0.73
    ps = np.arange(-6, 7)
    for p in (-3, 0, 5):
        vals = cardinal(p, d, ps * d)
        want = (ps == p).astype(float)
        assert np.max(np.abs(vals - want)) < 1e-13


def test_band_halfwidth_l2_takes_the_larger_rectangle_side():
    # b > 1 always holds on the admissible domain, so b^2 wins
    params = RegParams(epsilon=0.01, gamma=1.0)
    b = cutoff_l2(0.01, 1.0)
    a = band_halfwidth(params)
    assert a == pytest.approx(b * b, rel=1e-15)
    # frozen: b^2 = 7.434646209170825; the published rounding 7.43463 is
    # loose in its last digit
    assert a == pytest.approx(7.434646209170825, rel=1e-12)
    assert abs(a - 7.43463) < 5e-5


def test_band_halfwidth_hm_is_the_square_cutoff():
    with pytest.warns(UserWarning):
        params = RegParams(epsilon=0.001, m=1.0, mode=RegMode.HM)
        assert band_halfwidth(params) == cutoff_hm(0.001, 1.0)


def test_sinc_mesh_anchors():
    d = sinc_mesh(RegParams(epsilon=0.02, gamma=1.0))
    assert d == pytest.approx(0.5403555496277543, rel=1e-12)
    with pytest.warns(UserWarning):
        dh = sinc_mesh(RegParams(epsilon=0.001, m=1.0, mode=RegMode.HM))
    assert dh == pytest.approx(0.6937771348436335, rel=1e-12)
    # published rounding of the same number is 0.69385
    assert abs(dh - 0.69385) < 2e-4


def test_index_lattice_counts():
    for n in range(0, 7):
        ms, ns = index_lattice(IndexSetKind.SQUARE, n)
        assert ms.size == (2 * n + 1) ** 2
        mt, nt = index_lattice(IndexSetKind.TRIANGULAR, n)
        assert mt.size == 2 * n * n + 4 * n + 1
        assert np.all(np.abs(mt) <= np.abs(nt))
    with pytest.raises(ValueError):
        index_lattice(IndexSetKind.SQUARE, -1)


def test_triangular_lattice_n1_by_enumeration():
    ms, ns = index_lattice(IndexSetKind.TRIANGULAR, 1)
    got = set(zip(ms.tolist(), ns.tolist()))
    assert got == {(0, 0), (-1, -1), (0, -1), (1, -1), (-1, 1), (0, 1), (1, 1)}


def test_triangular_is_a_subset_of_square():
    sq = set(zip(*(a.tolist() for a in index_lattice(IndexSetKind.SQUARE, 4))))
    tr = set(zip(*(a.tolist() for a in index_lattice(IndexSetKind.TRIANGULAR, 4))))
    assert tr < sq


def test_expansion_validation_and_coeff_lookup():
    ms, ns = index_lattice(IndexSetKind.TRIANGULAR, 2)
    vals = np.arange(ms.size, dtype=float)
    exp = SincExpansion(d=0.5, kind=IndexSetKind.TRIANGULAR, n=2,
                        ms=ms, ns=ns, values=vals)
    k = int(np.flatnonzero((ms == 1) & (ns == 2))[0])
    assert exp.coeff(1, 2) == float(vals[k])
    with pytest.raises(KeyError):
        exp.coeff(2, 0)  # |m| > |n| is outside the triangular set
    with pytest.raises(ValueError):
        SincExpansion(d=0.0, kind=IndexSetKind.SQUARE, n=1,
                      ms=ms, ns=ns, values=vals)
    with pytest.raises(ValueError):
        SincExpansion(d=0.5, kind=IndexSetKind.SQUARE, n=1,
                      ms=ms, ns=ns, values=vals[:-1])


def test_build_expansion_stores_node_samples():
    def ev(x, t):
        return np.asarray(x) + 10.0 * np.asarray(t)

    exp = build_expansion(ev, a_eps=math.pi, n=2)  # d = 1
    assert exp.d == pytest.approx(1.0, rel=1e-15)
    assert exp.coeff(1, -2) == pytest.approx(1.0 - 20.0, rel=1e-15)
    with pytest.raises(ValueError):
        build_expansion(ev, a_eps=0.0, n=2)
    with pytest.raises(ValueError):
        build_expansion(ev, a_eps=1.0, n=0)
    with pytest.raises(ValueError, match=r"m=-1, n=-1"):
        # every node is bad; the error names the first lattice entry
        build_expansion(lambda x, t: np.full(np.shape(x), np.nan),
                        a_eps=1.0, n=1)


def test_series_is_exact_for_a_band_limited_member():
    # v(x,t) = S_0(x) S_0(t) lies in the band; any N >= 0 truncation that
    # includes index (0,0) reproduces it everywhere, not just at nodes
    d = 0.8

    def v(x, t):
        return np.sinc(np.asarray(x) / d) * np.sinc(np.asarray(t) / d)

    exp = build_expansion(v, a_eps=math.pi / d, n=3)
    rng = np.random.Generator(np.random.Philox(20))
    xs = rng.uniform(-2, 2, 40)
    ts = rng.uniform(-2, 2, 40)
    assert np.max(np.abs(eval_expansion(exp, xs, ts) - v(xs, ts))) < 1e-13


def test_eval_expansion_matches_node_coefficients():
    rng = np.random.Generator(np.random.Philox(8))
    ms, ns = index_lattice(IndexSetKind.SQUARE, 5)
    vals = rng.standard_normal(ms.size)
    exp = SincExpansion(d=0.31, kind=IndexSetKind.SQUARE, n=5,
                        ms=ms, ns=ns, values=vals)
    got = eval_expansion(exp, ms * exp.d, ns * exp.d)
    assert np.max(np.abs(got - vals)) < 1e-12
    # scalar path returns a plain float
    one = eval_expansion(exp, 0.31, 0.0)
    assert isinstance(one, float)
    assert one == pytest.approx(exp.coeff(1, 0), abs=1e-12)


def test_eval_expansion_chunking_is_seamless():
    # at N=10 a block holds 2^22/21 (~200k) points, so all 20k points sit
    # in one block: this checks only that split evaluation equals whole
    # evaluation (test_eval_expansion_block_seams_at_n50 crosses seams)
    rng = np.random.Generator(np.random.Philox(13))
    ms, ns = index_lattice(IndexSetKind.SQUARE, 10)
    vals = rng.standard_normal(ms.size)
    exp = SincExpansion(d=0.5, kind=IndexSetKind.SQUARE, n=10,
                        ms=ms, ns=ns, values=vals)
    xs = rng.uniform(-3, 3, 20000)
    ts = rng.uniform(-3, 3, 20000)
    whole = eval_expansion(exp, xs, ts)
    parts = np.concatenate([eval_expansion(exp, xs[:7001], ts[:7001]),
                            eval_expansion(exp, xs[7001:], ts[7001:])])
    assert np.max(np.abs(whole - parts)) < 1e-13 * max(1.0, np.max(np.abs(whole)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-2, 2, allow_nan=False))
def test_eval_expansion_is_linear_in_coefficients(seed, c):
    ms, ns = index_lattice(IndexSetKind.SQUARE, 2)
    rng = np.random.Generator(np.random.Philox(seed))
    va, vb = rng.standard_normal((2, ms.size))
    mk = lambda v: SincExpansion(d=0.9, kind=IndexSetKind.SQUARE, n=2,
                                 ms=ms, ns=ns, values=v)
    xs = rng.uniform(-2, 2, 9)
    ts = rng.uniform(-2, 2, 9)
    lhs = eval_expansion(mk(va + c * vb), xs, ts)
    rhs = eval_expansion(mk(va), xs, ts) + c * eval_expansion(mk(vb), xs, ts)
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(1.0, np.max(np.abs(rhs)))


def test_expansion_round_trip_is_lossless(tmp_path):
    rng = np.random.Generator(np.random.Philox(4))
    ms, ns = index_lattice(IndexSetKind.TRIANGULAR, 3)
    exp = SincExpansion(d=math.pi / 7.434646209170825,
                        kind=IndexSetKind.TRIANGULAR, n=3, ms=ms, ns=ns,
                        values=rng.standard_normal(ms.size) * 1e3)
    path = tmp_path / "sinc.txt"
    write_expansion(path, exp)
    back = read_expansion(path)
    assert back.d == exp.d
    assert back.kind is exp.kind and back.n == exp.n
    assert np.array_equal(back.ms, exp.ms)
    assert np.array_equal(back.ns, exp.ns)
    assert np.array_equal(back.values, exp.values)


def test_read_expansion_error_paths(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0.5 1\n")  # header needs 3 tokens
    with pytest.raises(ValueError, match="header"):
        read_expansion(p)
    p.write_text("0.5 1 square\n0 0 1.0\n")  # 1 of 9 rows
    with pytest.raises(ValueError, match="expected 9 coefficient rows"):
        read_expansion(p)
    p.write_text("0.5 1 hexagonal\n")
    with pytest.raises(ValueError, match="bad header"):
        read_expansion(p)
    p.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no header"):
        read_expansion(p)
    p.write_text("0.5 1 square\n0 0\n")
    with pytest.raises(ValueError, match="expected 'm n value'"):
        read_expansion(p)
    p.write_text("0.5 1 square\n0 zero 1.0\n")
    with pytest.raises(ValueError, match="bad row"):
        read_expansion(p)


def test_eval_expansion_block_seams_at_n50():
    # blocks hold 2^22 / (2N+1) points, 41 527 at N=50, so 100 003 points
    # span three blocks; every point must match its own evaluation
    rng = np.random.Generator(np.random.Philox(17))
    ms, ns = index_lattice(IndexSetKind.TRIANGULAR, 50)
    exp = SincExpansion(d=0.54, kind=IndexSetKind.TRIANGULAR, n=50,
                        ms=ms, ns=ns, values=rng.standard_normal(ms.size))
    xs = rng.uniform(-30, 30, 100003)
    ts = rng.uniform(-30, 30, 100003)
    whole = eval_expansion(exp, xs, ts)
    for i in (0, 41526, 41527, 83054, 100002):
        one = eval_expansion(exp, float(xs[i]), float(ts[i]))
        assert abs(whole[i] - one) <= 1e-12 * float(np.sum(np.abs(exp.values)))


def test_expansion_rejects_indices_off_the_lattice():
    with pytest.raises(ValueError, match="index_lattice"):
        SincExpansion(d=0.5, kind=IndexSetKind.TRIANGULAR, n=1,
                      ms=[5], ns=[-9], values=[1.0])
    # the right set in the wrong order is rejected too
    ms, ns = index_lattice(IndexSetKind.SQUARE, 1)
    with pytest.raises(ValueError, match="index_lattice"):
        SincExpansion(d=0.5, kind=IndexSetKind.SQUARE, n=1, ms=ms[::-1],
                      ns=ns[::-1], values=np.ones(ms.size))


def test_read_expansion_rejects_duplicate_indices(tmp_path):
    # nine rows are the right count for square N=1, but all name (0, 0):
    # coeff(0, 0) and the series value at the origin would disagree
    p = tmp_path / "dup.txt"
    p.write_text("0.5 1 square\n"
                 + "".join("0 0 %d\n" % v for v in range(1, 10)))
    with pytest.raises(ValueError, match="index_lattice"):
        read_expansion(p)


def test_coefficient_matrix_holds_the_index_set():
    ms, ns = index_lattice(IndexSetKind.TRIANGULAR, 2)
    vals = np.arange(1.0, ms.size + 1.0)
    exp = SincExpansion(d=0.5, kind=IndexSetKind.TRIANGULAR, n=2,
                        ms=ms, ns=ns, values=vals)
    assert exp.coeffs.shape == (5, 5)
    assert np.array_equal(exp.coeffs[ms + 2, ns + 2], vals)
    # entries outside |m| <= |n| stay zero
    assert np.count_nonzero(exp.coeffs) == ms.size
    assert exp.coeffs[4, 2] == 0.0  # (m, n) = (2, 0)


def test_expansions_compare_and_hash_by_identity():
    # ndarray fields make field-wise == ambiguous; identity semantics, as
    # for the field classes, keep ==, `in` and hashing well defined
    ms, ns = index_lattice(IndexSetKind.SQUARE, 1)
    a = SincExpansion(d=0.5, kind=IndexSetKind.SQUARE, n=1, ms=ms, ns=ns,
                      values=np.ones(ms.size))
    b = SincExpansion(d=0.5, kind=IndexSetKind.SQUARE, n=1, ms=ms, ns=ns,
                      values=np.ones(ms.size))
    assert a == a and a != b
    assert a in [a, b] and b not in [a]
    assert len({a, b, a}) == 2


def _series_reference(exp, x, t):
    """Literal double sum over the index set, one term at a time."""
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    acc = np.zeros(np.broadcast(x, t).shape)
    for m, p, v in zip(exp.ms, exp.ns, exp.values):
        acc = acc + v * np.sinc(x / exp.d - m) * np.sinc(t / exp.d - p)
    return acc


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(IndexSetKind)), st.integers(0, 6),
       st.floats(0.1, 2.0), st.integers(0, 10 ** 6))
def test_eval_expansion_matches_the_literal_double_sum(kind, n, d, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    ms, ns = index_lattice(kind, n)
    exp = SincExpansion(d=d, kind=kind, n=n, ms=ms, ns=ns,
                        values=rng.standard_normal(ms.size))
    # |sinc| <= 1, so the l1 norm of the coefficients bounds the series
    tol = 1e-12 * float(np.sum(np.abs(exp.values)))
    span = (n + 2) * d
    xs = rng.uniform(-span, span, 25)
    ts = rng.uniform(-span, span, 25)
    got = eval_expansion(exp, xs, ts)
    assert np.max(np.abs(got - _series_reference(exp, xs, ts))) <= tol
    at_nodes = eval_expansion(exp, ms * d, ns * d)
    assert np.max(np.abs(at_nodes - _series_reference(exp, ms * d, ns * d))) \
        <= tol
    one = eval_expansion(exp, float(xs[0]), float(ts[0]))
    assert isinstance(one, float)
    assert abs(one - float(_series_reference(exp, xs[0], ts[0]))) <= tol
    # an open grid (x column, t row) mixing random points with lattice
    # nodes takes the two-product path; it must agree with the point path
    nodes = np.arange(-n - 1, n + 2) * d
    xg = np.concatenate([xs[:6], nodes])[:, None]
    tg = np.concatenate([nodes, ts[:5]])[None, :]
    grid = eval_expansion(exp, xg, tg)
    assert grid.shape == (xg.size, tg.size)
    assert np.max(np.abs(grid - _series_reference(exp, xg, tg))) <= tol
    xm, tm = np.meshgrid(xg.ravel(), tg.ravel(), indexing="ij")
    points = eval_expansion(exp, xm.ravel(), tm.ravel()).reshape(grid.shape)
    assert np.max(np.abs(grid - points)) <= tol


def test_grid_inverse_lattice_matches_the_point_inverse():
    g = GridSpec.centered(5.0, 61, 5.0, 61)
    field = sample(lambda x, t: np.exp(-(x - 0.3) ** 2 - 2.0 * (t + 0.1) ** 2),
                   g)
    # the spectrum on the nodes of the window |z| <= 4, |r| <= 5
    spec = dft2_forward(field, GridSpec.centered(4.0, 33, 5.0, 41))
    a_eps, n = 5.0, 4
    lattice = sinc_lattice(a_eps, n)
    assert lattice.shape == (2 * n + 1, 2 * n + 1)
    assert lattice.dx == lattice.dt == pytest.approx(math.pi / a_eps,
                                                     rel=1e-15)
    grid_vals = idft2_windowed(spec, lattice).values
    ms, ns = index_lattice(IndexSetKind.SQUARE, n)
    d = math.pi / a_eps
    direct = idft2_windowed_at(spec, ms * d, ns * d)
    scale = float(np.max(np.abs(direct)))
    assert np.max(np.abs(grid_vals.ravel() - direct)) <= 1e-12 * scale
    # the spectral build keeps exactly the index-set entries of the grid
    tri = spectral_expansion(spec, a_eps, n, IndexSetKind.TRIANGULAR)
    mt, nt = index_lattice(IndexSetKind.TRIANGULAR, n)
    assert tri.d == math.pi / a_eps
    assert np.array_equal(tri.values, grid_vals[mt + n, nt + n])
    with pytest.raises(ValueError, match="2N\\+1"):
        lattice_expansion(grid_vals[:, :-1], a_eps)
