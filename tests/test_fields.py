"""Grid containers, discrete L2 norms, and GRD/CSV round trips."""

import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecast.fields import (_BLOCK_LINES, GridSpec, GrdParseError, RealField,
                             l2_distance, l2_norm, read_field, sample,
                             write_csv, write_field)
from sidecast.harness import write_run
from sidecast.kernels import test_problem
from sidecast.regularizer import (Reconstruction, RegParams, build_report,
                                  region_for)


def test_grid_nodes_and_area():
    g = GridSpec(x0=-1.0, dx=0.5, nx=5, t0=0.25, dt=0.25, nt=4)
    assert np.array_equal(g.x_nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.array_equal(g.t_nodes(), [0.25, 0.5, 0.75, 1.0])
    assert g.shape == (5, 4)
    assert g.cell_area == 0.125


def test_grid_rejects_bad_steps_and_counts():
    with pytest.raises(ValueError):
        GridSpec(0.0, -0.1, 4, 0.0, 0.1, 4)
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.1, 4, 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.1, 1, 0.0, 0.1, 4)
    with pytest.raises(ValueError, match="must be finite.*x0=nan"):
        GridSpec(float("nan"), 0.1, 4, 0.0, 0.1, 4)
    with pytest.raises(ValueError, match="must be finite.*dt=inf"):
        GridSpec(0.0, 0.1, 4, 0.0, float("inf"), 4)


def test_centered_grid_hits_origin_exactly():
    g = GridSpec.centered(3.0, 7, 2.0, 5)
    assert g.x_nodes()[3] == 0.0
    assert g.t_nodes()[2] == 0.0
    assert g.x_nodes()[0] == -3.0 and g.x_nodes()[-1] == 3.0
    with pytest.raises(ValueError):
        GridSpec.centered(-1.0, 7, 2.0, 5)


def test_field_reshapes_flat_input_and_freezes():
    g = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 3)
    f = RealField(g, np.arange(6.0))
    assert f.values.shape == (2, 3)
    with pytest.raises(ValueError):
        f.values[0, 0] = 99.0  # read-only


def test_field_rejects_bad_shape_and_nonfinite():
    g = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        RealField(g, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        RealField(g, [[1.0, np.nan], [0.0, 0.0]])


def test_sample_vectorized_matches_scalar_fallback():
    g = GridSpec(-1.0, 0.5, 5, 0.0, 0.25, 4)

    def fv(x, t):
        return np.exp(-x * x) * (1.0 + t)

    def fs(x, t):  # scalar-only evaluator forces the loop path
        if np.ndim(x) != 0:
            raise TypeError("scalars only")
        return math.exp(-x * x) * (1.0 + t)

    assert np.array_equal(sample(fv, g).values, sample(fs, g).values)


def test_sample_names_the_nonfinite_node():
    g = GridSpec(0.0, 1.0, 3, 0.0, 1.0, 2)
    with pytest.raises(ValueError, match=r"\(i=1, j=0\), x=1, t=0$"):
        sample(lambda x, t: np.where(x == 1.0, np.inf, 0.0) + 0 * t, g)


@pytest.mark.parametrize("pid", ["P1", "P2"])
@pytest.mark.parametrize("which", ["f0", "g0", "v_exact"])
def test_open_grid_sample_is_bit_identical_to_a_meshgrid_call(pid, which):
    # t runs through 0 into negative values, so the causal branch is hit
    g = GridSpec(x0=-3.0, dx=0.0731, nx=83, t0=-0.37, dt=0.0419, nt=97)
    fn = getattr(test_problem(pid), which)
    X, T = np.meshgrid(g.x_nodes(), g.t_nodes(), indexing="ij")
    assert np.array_equal(sample(fn, g).values, fn(X, T))


def test_x_only_evaluator_broadcasts_along_t():
    g = GridSpec(-1.0, 0.25, 9, 0.5, 0.1, 4)
    want = np.repeat(np.sin(g.x_nodes())[:, None], g.nt, axis=1)
    assert np.array_equal(sample(lambda x, t: np.sin(x), g).values, want)


def test_flattened_result_takes_the_node_loop():
    g = GridSpec(-1.0, 0.5, 5, 0.0, 0.25, 4)
    calls = []

    def flat(x, t):  # a flat array cannot broadcast to the grid's shape
        calls.append(np.ndim(x))
        return np.ravel(x + t) if np.ndim(x) else x + t

    X, T = np.meshgrid(g.x_nodes(), g.t_nodes(), indexing="ij")
    assert np.array_equal(sample(flat, g).values, X + T)
    assert calls[0] == 2 and calls[1:] == [0] * (g.nx * g.nt)


def test_l2_norm_gaussian_anchor():
    # ||e^{-x^2-t^2}||_2 = sqrt(pi/2); box [-8,8]^2 leaves ~e^{-128} outside
    g = GridSpec.centered(8.0, 321, 8.0, 321)
    f = sample(lambda x, t: np.exp(-x * x - t * t), g)
    assert abs(l2_norm(f) - math.sqrt(math.pi / 2.0)) < 1e-3


def test_l2_distance_requires_matching_grids():
    ga = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
    gb = GridSpec(0.0, 1.0, 2, 0.0, 2.0, 2)
    a = RealField(ga, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        l2_distance(a, RealField(gb, np.zeros((2, 2))))


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)),
       st.integers(0, 10 ** 6))
def test_l2_norm_scales_homogeneously(c, seed):
    # |c| is bounded away from 0 so squaring c*v cannot underflow
    g = GridSpec(0.0, 0.5, 4, 0.0, 0.5, 3)
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal(g.shape)
    a = RealField(g, v)
    b = RealField(g, c * v)
    assert l2_norm(b) == pytest.approx(abs(c) * l2_norm(a), rel=1e-12, abs=1e-300)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_l2_distance_triangle_inequality(seed):
    g = GridSpec(0.0, 0.5, 4, 0.0, 0.5, 3)
    rng = np.random.Generator(np.random.Philox(seed))
    a, b, c = (RealField(g, rng.standard_normal(g.shape)) for _ in range(3))
    assert l2_distance(a, c) <= l2_distance(a, b) + l2_distance(b, c) + 1e-12


def test_grd_header_format_is_exact(tmp_path):
    g = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
    path = tmp_path / "tiny.grd"
    write_field(RealField(g, [[1.0, 2.0], [3.0, 4.0]]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 2 0 1 0 1"
    # row j holds the fixed-t_j slice: values[:, 0] first
    assert lines[1] == "1 3"
    assert lines[2] == "2 4"


def test_grd_round_trip_is_exact(tmp_path):
    g = GridSpec(-1.25, 1.0 / 3.0, 7, 0.1, 0.07, 5)
    rng = np.random.Generator(np.random.Philox(7))
    f = RealField(g, 1e-8 + rng.standard_normal(g.shape) * 1e3)
    path = tmp_path / "f.grd"
    write_field(f, path)
    f2 = read_field(path)
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)  # 17 digits round-trips float64


def test_grd_comments_before_header_are_allowed(tmp_path):
    path = tmp_path / "c.grd"
    path.write_text("# comment\n\n2 2 0 1 0 1\n1 2\n3 4\n")
    f = read_field(path)
    assert f.values[0, 1] == 3.0


@pytest.mark.parametrize("body,lineno", [
    ("2 2 0 1 0 1 9\n1 2\n3 4\n", 1),      # 7 header tokens
    ("2 2 0 one 0 1\n1 2\n3 4\n", 1),      # unparseable header
    ("2 2 nan 1 0 1\n1 2\n3 4\n", 1),      # non-finite header
    ("2 2 0 1 0 1\n1 2 5\n3 4\n", 2),      # wrong row width
    ("2 2 0 1 0 1\n1 2\n3 nan\n", 3),      # non-finite
    ("2 2 0 1 0 1\n1 2\n3 4\n5 6\n", 4),   # extra row
])
def test_grd_parse_errors_carry_line_numbers(tmp_path, body, lineno):
    path = tmp_path / "bad.grd"
    path.write_text(body)
    with pytest.raises(GrdParseError, match=r":%d:" % lineno):
        read_field(path)


def test_grd_missing_rows_and_missing_header(tmp_path):
    path = tmp_path / "short.grd"
    path.write_text("2 3 0 1 0 1\n1 2\n")
    with pytest.raises(GrdParseError, match="expected 3 data rows"):
        read_field(path)
    empty = tmp_path / "empty.grd"
    empty.write_text("# nothing\n")
    with pytest.raises(GrdParseError, match="missing header"):
        read_field(empty)


def _written(tmp_path, field, name):
    """The file `name` ("v_eps.grd" or "v_eps.csv") as its writer makes it
    on its own, then as a run writes it, from text formatted once."""
    alone = tmp_path / ("alone_" + name)
    (write_field if name.endswith(".grd") else write_csv)(field, alone)
    params = RegParams(epsilon=0.02, gamma=1.0)
    rec = Reconstruction(v_eps=field, report=build_report(params),
                         v_hat=None, window=region_for(params),
                         data_grid=field.grid)
    write_run(tmp_path / "run", rec, params, ["k=v"])
    return alone, tmp_path / "run" / name


def test_grd_bytes_match_a_literal_writer(tmp_path):
    rng = np.random.Generator(np.random.Philox(12))
    g = GridSpec(x0=-0.1, dx=1.0 / 3.0, nx=6, t0=1e-9, dt=0.7, nt=4)
    vals = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-300, 300,
                                                               g.shape)
    vals[0, :] = [0.0, -0.0, 1.0, 1e16]
    want = "%d %d %.17g %.17g %.17g %.17g\n" % (g.nx, g.nt, g.x0, g.dx,
                                               g.t0, g.dt)
    for j in range(g.nt):
        want += " ".join("%.17g" % vals[i, j] for i in range(g.nx)) + "\n"
    for path in _written(tmp_path, RealField(g, vals), "v_eps.grd"):
        assert path.read_bytes() == want.encode()


def test_grd_write_holds_one_line_of_text_at_a_time(tmp_path):
    g = GridSpec(0.0, 0.1, 200, 0.05, 0.1, 500)
    field = RealField(g, np.random.Generator(np.random.Philox(14))
                      .standard_normal(g.shape))
    path = tmp_path / "big.grd"
    tracemalloc.start()
    try:
        write_field(field, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2_000_000
    # one 200-value line of text; the whole field as text or as Python
    # floats would pass the file size
    assert peak < size / 10


def test_grd_read_holds_one_row_of_text_at_a_time(tmp_path):
    g = GridSpec(0.0, 0.1, 200, 0.05, 0.1, 500)
    rng = np.random.Generator(np.random.Philox(13))
    path = tmp_path / "big.grd"
    write_field(RealField(g, rng.standard_normal(g.shape)), path)
    size = path.stat().st_size
    assert size > 2_000_000
    tracemalloc.start()
    try:
        field = read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.values.shape == (200, 500)
    # the values take 0.8 MB; a whole-file read would hold 2x the text
    assert peak < size


# A data body of _NT rows of 3 values, over three read blocks, with a
# blank line before every fifth row and a blank header gap.
_NT = 2 * _BLOCK_LINES + 8


def _grd_body(rows):
    """GRD text of `rows` (lists of value tokens) under a 3 x _NT header,
    and the file line of each row."""
    out, at = ["3 %d 0 1 0 1\n" % _NT, "\n"], []
    for j, row in enumerate(rows):
        if j % 5 == 0:
            out.append(" \t\n")
        out.append(" ".join(row) + "\n")
        at.append(len(out))
    return "".join(out), at


def _good_rows(n=_NT):
    return [["%d.5" % j, "-1e-3", "7"] for j in range(n)]


def _refusal(tmp_path, rows, lineno, msg):
    """Assert that the file of `rows` is refused at `lineno` with `msg`."""
    path = tmp_path / "bad.grd"
    body, _ = _grd_body(rows)
    path.write_text(body)
    with pytest.raises(GrdParseError) as exc:
        read_field(path)
    assert str(exc.value) == "%s:%d: %s" % (path, lineno, msg)


_B = _BLOCK_LINES


@pytest.mark.parametrize("row", [0, _B - 1, _B, 2 * _B - 1, _B + 5])
@pytest.mark.parametrize("bad,msg", [
    (["1", "2x", "3"], "unparseable value in row"),
    (["1", "2", "3", "4"], "expected 3 values, got 4"),
    (["1", "2"], "expected 3 values, got 2"),
    (["1", "nan", "3"], "non-finite value in row"),
    (["-inf", "2", "3"], "non-finite value in row"),
])
def test_block_reader_names_the_bad_line(tmp_path, row, bad, msg):
    # rows 0 and _B - 1 open and close the first block, _B and 2*_B - 1
    # the second; row _B + 5 follows a blank line
    rows = _good_rows()
    rows[row] = bad
    _refusal(tmp_path, rows, _grd_body(rows)[1][row], msg)


@pytest.mark.parametrize("first", [0, _B])
@pytest.mark.parametrize("width", [2, 4])
def test_a_whole_block_of_one_wrong_width_is_refused_at_its_first_line(
        tmp_path, first, width):
    rows = _good_rows()
    for j in range(first, first + _B):
        rows[j] = ["1"] * width
    _refusal(tmp_path, rows, _grd_body(rows)[1][first],
             "expected 3 values, got %d" % width)


@pytest.mark.parametrize("widths", [(2, 4), (4, 2), (4, 5), (1, 1)])
def test_ragged_widths_in_a_block_are_refused_at_the_first(tmp_path, widths):
    rows = _good_rows()
    rows[_B + 3] = ["1"] * widths[0]
    rows[_B + 9] = ["1"] * widths[1]
    _refusal(tmp_path, rows, _grd_body(rows)[1][_B + 3],
             "expected 3 values, got %d" % widths[0])


@pytest.mark.parametrize("short", [3, _NT - 2])
def test_a_short_row_and_an_extra_row_name_the_short_row(tmp_path, short):
    # row _NT - 2 shares the last block with the extra row
    rows = _good_rows(_NT + 1)
    rows[short] = ["1", "2"]
    _refusal(tmp_path, rows, _grd_body(rows)[1][short],
             "expected 3 values, got 2")


def test_the_extra_row_is_named_after_nt_good_rows(tmp_path):
    rows = _good_rows(_NT + 2)
    _refusal(tmp_path, rows, _grd_body(rows)[1][_NT],
             "unexpected extra data row (grid has nt=%d)" % _NT)


@pytest.mark.parametrize("fault", ["short", "unparseable", "missing",
                                   "extra"])
def test_a_non_finite_value_before_another_fault_is_named_first(tmp_path,
                                                                fault):
    rows = _good_rows()
    rows[_B + 2] = ["1", "2", "inf"]
    if fault == "short":            # in a later block
        rows[2 * _B + 1] = ["1", "2"]
    elif fault == "unparseable":    # in the same block
        rows[_B + 7] = ["1", "x", "3"]
    elif fault == "missing":        # rows missing at the end
        del rows[-3:]
    else:
        rows.append(["1", "2", "3"])
    _refusal(tmp_path, rows, _grd_body(rows)[1][_B + 2],
             "non-finite value in row")


def test_nan_and_inf_in_the_second_block_name_their_own_line(tmp_path):
    rows = _good_rows()
    rows[_B + 4] = ["1", "2", "nan"]
    rows[_B + 6] = ["inf", "2", "3"]
    at = _grd_body(rows)[1]
    _refusal(tmp_path, rows, at[_B + 4], "non-finite value in row")
    rows[_B + 4] = ["1", "2", "3"]
    _refusal(tmp_path, rows, at[_B + 6], "non-finite value in row")


def test_rows_missing_at_the_end_name_the_last_line(tmp_path):
    path = tmp_path / "short.grd"
    body, _ = _grd_body(_good_rows(_NT - 3))
    path.write_text(body + "\n\n")
    with pytest.raises(GrdParseError) as exc:
        read_field(path)
    assert str(exc.value) == "%s:%d: expected %d data rows, got %d" % (
        path, body.count("\n") + 2, _NT, _NT - 3)


@pytest.mark.parametrize("tok,msg", [
    # float() reads these two; the reader takes ASCII decimal text only
    ("1_0", "unparseable value in row"),
    ("\u0661\u0662", "unparseable value in row"),
    ("0x10", "unparseable value in row"),
    ("nan", "non-finite value in row"),
    ("-Infinity", "non-finite value in row"),
    ("1e400", "non-finite value in row"),   # overflows to inf
])
def test_parse_domain_is_ascii_float_text(tmp_path, tok, msg):
    rows = _good_rows()
    rows[_B + 1] = ["1", tok, "3"]
    _refusal(tmp_path, rows, _grd_body(rows)[1][_B + 1], msg)


def test_grd_read_scans_the_values_for_finiteness_once(tmp_path,
                                                       monkeypatch):
    path = tmp_path / "f.grd"
    path.write_text(_grd_body(_good_rows())[0])
    sizes = []
    isfinite = np.isfinite

    def counted(a, *args, **kw):
        sizes.append(np.size(a))
        return isfinite(a, *args, **kw)

    monkeypatch.setattr(np, "isfinite", counted)
    read_field(path)
    # the grid's four scalars, then RealField's one scan of the values
    assert sizes == [4, 3 * _NT]


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 7, 1e300,
            -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 1.0 / 3.0]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(2, 50), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=8))
def test_grd_round_trip_is_bit_exact_and_rewrites_the_same_bytes(nx, nt, seed,
                                                                 drawn):
    rng = np.random.Generator(np.random.Philox(seed))
    vals = (rng.standard_normal(nx * nt)
            * 10.0 ** rng.integers(-300, 300, nx * nt))
    picks = rng.random(nx * nt) < 0.3
    vals[picks] = rng.choice(_SPECIAL, int(picks.sum()))
    k = min(len(drawn), vals.size)
    vals[:k] = drawn[:k]
    g = GridSpec(x0=-0.1, dx=1.0 / 3.0, nx=nx, t0=1e-9, dt=0.7, nt=nt)
    field = RealField(g, vals.reshape(g.shape))
    with tempfile.TemporaryDirectory() as tmp:
        alone, run = _written(Path(tmp), field, "v_eps.grd")
        back = read_field(alone)
        assert back.grid == g
        assert back.values.tobytes() == field.values.tobytes()
        again = Path(tmp) / "again.grd"
        write_field(back, again)
        assert again.read_bytes() == alone.read_bytes() == run.read_bytes()


def test_csv_layout(tmp_path):
    g = GridSpec(0.0, 1.0, 2, 10.0, 0.5, 2)
    path = tmp_path / "f.csv"
    write_csv(RealField(g, [[1.0, 2.0], [3.0, 4.0]]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,t,value"
    assert lines[1] == "0,10,1"       # x outer, t inner
    assert lines[2] == "0,10.5,2"
    assert lines[3] == "1,10,3"


def test_csv_bytes_match_a_per_node_writer(tmp_path):
    rng = np.random.Generator(np.random.Philox(11))
    g = GridSpec(x0=-0.1, dx=1.0 / 3.0, nx=7, t0=1e-9, dt=0.7, nt=5)
    vals = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-300, 300,
                                                               g.shape)
    vals[0, :] = [0.0, -0.0, 1.0, -2.0, 1e16]
    want = ["x,t,value\n"]
    for i, x in enumerate(g.x_nodes()):
        for j, t in enumerate(g.t_nodes()):
            want.append("%.17g,%.17g,%.17g\n" % (x, t, vals[i, j]))
    for path in _written(tmp_path, RealField(g, vals), "v_eps.csv"):
        assert path.read_bytes() == "".join(want).encode()


def test_writers_reject_complex():
    from sidecast.fields import ComplexField
    g = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
    c = ComplexField(g, np.zeros((2, 2), dtype=complex))
    with pytest.raises(TypeError):
        write_field(c, "/dev/null")
    with pytest.raises(TypeError):
        write_csv(c, "/dev/null")
