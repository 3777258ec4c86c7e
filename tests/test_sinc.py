"""Index lattices, the coefficient-matrix form of the series, expansion
building/evaluation, and the text serialization."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecast.fields import ComplexField, GridSpec, sample
from sidecast.harness import dft2_forward
from sidecast.regularizer import RegMode, RegParams, cutoff_hm, cutoff_l2
from sidecast.sinc import (IndexSetKind, SincExpansion, band_halfwidth,
                           build_expansion, eval_expansion, index_lattice,
                           read_expansion, sinc_lattice, write_expansion)
from sidecast.transform import SpectralWindow, idft2_windowed_at

from direct_reference import idft2_direct


def _series(d, kind, n, values):
    """The expansion whose coefficients on kind's index set, in
    index_lattice order, are values."""
    ms, ns = index_lattice(kind, n)
    coeffs = np.zeros((2 * n + 1, 2 * n + 1))
    coeffs[ms + n, ns + n] = values
    return SincExpansion(d, kind, coeffs)


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
    # the series mesh is d = pi / a for the band half-width a
    d = math.pi / band_halfwidth(RegParams(epsilon=0.02, gamma=1.0))
    assert d == pytest.approx(0.5403555496277543, rel=1e-12)
    with pytest.warns(UserWarning):
        dh = math.pi / band_halfwidth(
            RegParams(epsilon=0.001, m=1.0, mode=RegMode.HM))
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
    exp = _series(0.5, IndexSetKind.TRIANGULAR, 2, vals)
    k = int(np.flatnonzero((ms == 1) & (ns == 2))[0])
    assert exp.coeffs[1 + 2, 2 + 2] == float(vals[k])
    # |m| > |n| is outside the triangular set
    assert not np.any((exp.ms == 2) & (exp.ns == 0))
    assert exp.coeffs[2 + 2, 0 + 2] == 0.0
    with pytest.raises(ValueError, match="positive"):
        SincExpansion(0.0, IndexSetKind.SQUARE, np.zeros((3, 3)))
    for shape in ((3, 2), (4, 4), (9,), (1, 3, 3)):
        with pytest.raises(ValueError, match="2N\\+1"):
            SincExpansion(0.5, IndexSetKind.SQUARE, np.zeros(shape))


def test_build_expansion_stores_node_samples():
    def ev(x, t):
        return np.asarray(x) + 10.0 * np.asarray(t)

    exp = build_expansion(ev, a_eps=math.pi, n=2)  # d = 1
    assert exp.d == pytest.approx(1.0, rel=1e-15)
    assert exp.coeffs[1 + 2, -2 + 2] == pytest.approx(1.0 - 20.0, rel=1e-15)
    with pytest.raises(ValueError):
        build_expansion(ev, a_eps=0.0, n=2)
    with pytest.raises(ValueError):
        build_expansion(ev, a_eps=1.0, n=0)
    with pytest.raises(ValueError, match=r"node \(i=0, j=0\)"):
        # every node is bad; the error names the first one
        build_expansion(lambda x, t: np.full(np.shape(x), np.nan),
                        a_eps=1.0, n=1)
    # a sample outside the triangular set is checked too: node (i=2, j=1)
    # is the index (m=1, n=0), which the set drops
    with pytest.raises(ValueError, match=r"node \(i=2, j=1\)"):
        build_expansion(lambda x, t: np.where((x > 0) & (t == 0), np.nan, 1.0),
                        a_eps=math.pi, n=1, kind=IndexSetKind.TRIANGULAR)


def test_build_expansion_calls_its_evaluator_once_on_the_open_grid():
    # one call, x a column and t a row of the 2N+1 lattice nodes; a result
    # that depends on x only is broadcast along t
    calls = []

    def ev(x, t):
        calls.append((np.shape(x), np.shape(t)))
        return np.cos(x)

    exp = build_expansion(ev, a_eps=math.pi / 0.5, n=3)
    assert calls == [((7, 1), (1, 7))]
    want = np.cos(0.5 * np.arange(-3, 4))
    assert np.array_equal(exp.coeffs, np.repeat(want[:, None], 7, axis=1))
    # a scalar is a constant series. A result that does not broadcast to
    # the lattice is a ValueError from one of two sources: the flat
    # (x + t).ravel() is refused by fields._node_values' own flat-result
    # message, and only x[:-1] + t reaches numpy, whose wording varies by
    # version; both name "broadcast"
    assert np.all(build_expansion(lambda x, t: 2.0, 1.0, 1).coeffs == 2.0)
    for bad in (lambda x, t: (x + t).ravel(), lambda x, t: x[:-1] + t):
        with pytest.raises(ValueError, match="broadcast"):
            build_expansion(bad, a_eps=1.0, n=2)


_EVALUATORS = {
    "idft2_windowed_at": lambda x, t: idft2_windowed_at(ComplexField(
        GridSpec.centered(1.0, 3, 1.0, 3), np.ones((3, 3), complex)), x, t),
    "eval_expansion": lambda x, t: eval_expansion(
        _series(0.5, IndexSetKind.SQUARE, 1, np.arange(9.0)), x, t),
}


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
@pytest.mark.parametrize("x,t", [
    # a list of points, which np.outer would silently take as a grid
    (np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6])),
    (0.1, 0.2),
    (np.array(0.1), np.array(0.2)),
    # x and t both (n, m)
    np.meshgrid([0.1, 0.2], [0.4, 0.5, 0.6], indexing="ij"),
    # a row and a column, the wrong way round
    (np.array([[0.1, 0.2]]), np.array([[0.4], [0.5]])),
], ids=["points", "scalars", "zero-dim", "meshgrid", "row-and-column"])
def test_evaluators_refuse_anything_but_an_open_grid(name, x, t):
    with pytest.raises(ValueError, match=r"expected an open grid, .*got x of "
                       r"shape %s and t of shape %s"
                       % tuple(map(re.escape, (repr(np.shape(x)),
                                               repr(np.shape(t)))))):
        _EVALUATORS[name](x, t)


def test_series_is_exact_for_a_band_limited_member():
    # v(x,t) = S_0(x) S_0(t) lies in the band; any N >= 0 truncation that
    # includes index (0,0) reproduces it everywhere, not just at nodes
    d = 0.8

    def v(x, t):
        return np.sinc(np.asarray(x) / d) * np.sinc(np.asarray(t) / d)

    exp = build_expansion(v, a_eps=math.pi / d, n=3)
    rng = np.random.Generator(np.random.Philox(20))
    xs = rng.uniform(-2, 2, (8, 1))
    ts = rng.uniform(-2, 2, (1, 5))
    assert np.max(np.abs(eval_expansion(exp, xs, ts) - v(xs, ts))) < 1e-13


def test_eval_expansion_matches_node_coefficients():
    rng = np.random.Generator(np.random.Philox(8))
    ms, ns = index_lattice(IndexSetKind.SQUARE, 5)
    vals = rng.standard_normal(ms.size)
    exp = _series(0.31, IndexSetKind.SQUARE, 5, vals)
    nodes = sinc_lattice(math.pi / exp.d, 5).x_nodes()
    got = eval_expansion(exp, nodes[:, None], nodes[None, :])
    assert np.max(np.abs(got - exp.coeffs)) < 1e-12
    # a one-node grid
    one = eval_expansion(exp, [[0.31]], [[0.0]])
    assert one.shape == (1, 1)
    assert one[0, 0] == pytest.approx(exp.coeffs[1 + 5, 0 + 5], abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-2, 2, allow_nan=False))
def test_eval_expansion_is_linear_in_coefficients(seed, c):
    rng = np.random.Generator(np.random.Philox(seed))
    va, vb = rng.standard_normal((2, 5, 5))
    mk = lambda v: SincExpansion(0.9, IndexSetKind.SQUARE, v)
    xs = rng.uniform(-2, 2, (9, 1))
    ts = rng.uniform(-2, 2, (1, 9))
    lhs = eval_expansion(mk(va + c * vb), xs, ts)
    rhs = eval_expansion(mk(va), xs, ts) + c * eval_expansion(mk(vb), xs, ts)
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(1.0, np.max(np.abs(rhs)))


def test_expansion_round_trip_is_lossless(tmp_path):
    rng = np.random.Generator(np.random.Philox(4))
    exp = SincExpansion(math.pi / 7.434646209170825, IndexSetKind.TRIANGULAR,
                        rng.standard_normal((7, 7)) * 1e3)
    path = tmp_path / "sinc.txt"
    write_expansion(path, exp)
    back = read_expansion(path)
    assert back.d == exp.d
    assert back.kind is exp.kind and back.n == exp.n
    assert np.array_equal(back.ms, exp.ms)
    assert np.array_equal(back.ns, exp.ns)
    assert np.array_equal(back.values, exp.values)
    assert np.array_equal(back.coeffs, exp.coeffs)


@pytest.mark.parametrize("kind", list(IndexSetKind))
def test_expansion_bytes_match_a_per_row_writer(tmp_path, kind):
    rng = np.random.Generator(np.random.Philox(6))
    n = 3
    count = len(index_lattice(kind, n)[0])
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300,
                                                               count)
    values[:4] = [-0.0, 1e16, 5e-324, 1.0]
    exp = _series(math.pi / 7.434646209170825, kind, n, values)
    path = tmp_path / "sinc.txt"
    write_expansion(path, exp)
    want = "%.17g %d %s\n" % (exp.d, n, kind.value)
    for m, p, v in zip(exp.ms, exp.ns, exp.values):
        want += "%d %d %.17g\n" % (m, p, v)
    assert path.read_bytes() == want.encode()


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
    p.write_text("0.5 -1 square\n")
    with pytest.raises(ValueError, match="bad.txt:1: bad header: index radius"):
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
    # an infinite mesh would evaluate to c_00 at every point
    p.write_text("inf 1 square\n"
                 + _rows(*index_lattice(IndexSetKind.SQUARE, 1)))
    with pytest.raises(ValueError, match="bad.txt: mesh spacing d must be "
                       "finite and positive"):
        read_expansion(p)


def test_read_expansion_counts_rows_before_forming_the_lattice(tmp_path):
    # the index lattice of N = 10^6 would be two arrays of (2N+1)^2 int64
    # entries; the header is refused on its row count instead
    p = tmp_path / "huge.txt"
    for kind, want in (("square", 4000004000001), ("triangular",
                                                   2000004000001)):
        p.write_text("0.5 1000000 %s\n0 0 1.0\n" % kind)
        with pytest.raises(ValueError,
                           match="expected %d coefficient rows" % want):
            read_expansion(p)


def _rows(ms, ns):
    return "".join("%d %d %d\n" % (m, p, k + 1)
                   for k, (m, p) in enumerate(zip(ms, ns)))


def test_expansion_rejects_indices_off_the_lattice(tmp_path):
    p = tmp_path / "off.txt"
    # seven rows are the right count for triangular N=1, but (1, 0) has
    # |m| > |n| and stands where (1, 1) belongs
    ms, ns = index_lattice(IndexSetKind.TRIANGULAR, 1)
    ns = ns.copy()
    ns[-1] = 0
    p.write_text("0.5 1 triangular\n" + _rows(ms, ns))
    with pytest.raises(ValueError, match="index_lattice"):
        read_expansion(p)
    # the right set in the wrong order is rejected too
    ms, ns = index_lattice(IndexSetKind.SQUARE, 1)
    p.write_text("0.5 1 square\n" + _rows(ms[::-1], ns[::-1]))
    with pytest.raises(ValueError, match="index_lattice"):
        read_expansion(p)


def test_read_expansion_rejects_a_non_finite_coefficient(tmp_path):
    p = tmp_path / "nan.txt"
    ms, ns = index_lattice(IndexSetKind.SQUARE, 1)
    rows = _rows(ms, ns).replace("0 1 6\n", "0 1 nan\n")
    p.write_text("0.5 1 square\n" + rows)
    with pytest.raises(ValueError,
                       match=r"nan\.txt: non-finite .*\(m=0, n=1\)"):
        read_expansion(p)


def test_read_expansion_rejects_duplicate_indices(tmp_path):
    # nine rows are the right count for square N=1, but all name (0, 0):
    # the file would give one coefficient nine values
    p = tmp_path / "dup.txt"
    p.write_text("0.5 1 square\n"
                 + "".join("0 0 %d\n" % v for v in range(1, 10)))
    with pytest.raises(ValueError, match="index_lattice"):
        read_expansion(p)


def test_coefficient_matrix_holds_the_index_set():
    assert [f.name for f in dataclasses.fields(SincExpansion)] \
        == ["d", "kind", "coeffs"]
    ms, ns = index_lattice(IndexSetKind.TRIANGULAR, 2)
    full = np.arange(1.0, 26.0).reshape(5, 5)
    exp = SincExpansion(0.5, IndexSetKind.TRIANGULAR, full)
    assert exp.n == 2 and exp.coeffs.shape == (5, 5)
    assert np.array_equal(exp.ms, ms) and np.array_equal(exp.ns, ns)
    assert np.array_equal(exp.values, full[ms + 2, ns + 2])
    assert np.array_equal(exp.coeffs[ms + 2, ns + 2], exp.values)
    # entries outside |m| <= |n| are zeroed
    assert np.count_nonzero(exp.coeffs) == ms.size
    assert exp.coeffs[4, 2] == 0.0  # (m, n) = (2, 0)
    # the series owns its arrays, and they and n are read-only
    full[2, 2] = -1.0
    assert exp.coeffs[2, 2] == 13.0
    for arr in (exp.coeffs, exp.ms, exp.ns, exp.values):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        exp.n = 3


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(IndexSetKind)), st.integers(0, 6),
       st.floats(0.05, 3.0), st.integers(0, 10 ** 6))
def test_round_trip_reproduces_the_coefficient_matrix(tmp_path_factory, kind,
                                                      n, d, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    ms, ns = index_lattice(kind, n)
    inside = np.zeros((2 * n + 1, 2 * n + 1), dtype=bool)
    inside[ms + n, ns + n] = True
    full = rng.standard_normal(inside.shape) * 10.0 ** rng.integers(-5, 6)
    # nonzero and non-finite entries outside the set are zeroed, not refused
    full[~inside] = rng.choice([np.nan, np.inf, -np.inf, 7.0],
                               size=np.count_nonzero(~inside))
    exp = SincExpansion(d, kind, full)
    assert np.array_equal(exp.coeffs, np.where(inside, full, 0.0))
    assert exp.n == n
    path = tmp_path_factory.mktemp("sinc") / "sinc.txt"
    write_expansion(path, exp)
    back = read_expansion(path)
    assert back.d == d and back.kind is kind and back.n == n
    assert np.array_equal(back.coeffs, exp.coeffs)
    # the set's indices and coefficients come back in index_lattice order
    assert np.array_equal(back.ms, ms) and np.array_equal(back.ns, ns)
    assert np.array_equal(back.values, full[ms + n, ns + n])


def test_expansions_compare_and_hash_by_identity():
    # ndarray fields make field-wise == ambiguous; identity semantics, as
    # for the field classes, keep ==, `in` and hashing well defined
    a = SincExpansion(0.5, IndexSetKind.SQUARE, np.ones((3, 3)))
    b = SincExpansion(0.5, IndexSetKind.SQUARE, np.ones((3, 3)))
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
    exp = _series(d, kind, n, rng.standard_normal(ms.size))
    # |sinc| <= 1, so the l1 norm of the coefficients bounds the series
    tol = 1e-12 * float(np.sum(np.abs(exp.values)))
    span = (n + 2) * d
    xs = rng.uniform(-span, span, (25, 1))
    ts = rng.uniform(-span, span, (1, 25))
    got = eval_expansion(exp, xs, ts)
    assert np.max(np.abs(got - _series_reference(exp, xs, ts))) <= tol
    # the lattice nodes, with a ring of nodes outside the index set
    nodes = np.arange(-n - 1, n + 2) * d
    at_nodes = eval_expansion(exp, nodes[:, None], nodes[None, :])
    assert np.max(np.abs(at_nodes - _series_reference(
        exp, nodes[:, None], nodes[None, :]))) <= tol
    # an open grid mixing random points with lattice nodes
    xg = np.concatenate([xs[:6, 0], nodes])[:, None]
    tg = np.concatenate([nodes, ts[0, :5]])[None, :]
    grid = eval_expansion(exp, xg, tg)
    assert grid.shape == (xg.size, tg.size)
    assert np.max(np.abs(grid - _series_reference(exp, xg, tg))) <= tol


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
    def inverse(x, t):
        return idft2_windowed_at(spec, x, t)

    grid_vals = build_expansion(inverse, a_eps, n).coeffs
    # the literal inverse sum, one lattice node at a time
    direct = idft2_direct(spec, lattice.x_nodes(), lattice.t_nodes()).real
    scale = float(np.max(np.abs(direct)))
    assert np.max(np.abs(grid_vals - direct)) <= 1e-12 * scale
    # the build keeps exactly the index-set entries of the grid
    tri = build_expansion(inverse, a_eps, n, IndexSetKind.TRIANGULAR)
    mt, nt = index_lattice(IndexSetKind.TRIANGULAR, n)
    assert tri.d == math.pi / a_eps
    assert np.array_equal(tri.values, grid_vals[mt + n, nt + n])
    with pytest.raises(ValueError, match="2N\\+1"):
        SincExpansion(tri.d, IndexSetKind.SQUARE, grid_vals[:, :-1])
