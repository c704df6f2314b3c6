import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    ConjugateMismatch,
    Cube,
    DegenerateCube,
    GridFunction,
    GridSpec,
    InputUnreadable,
    NonAlignedCube,
    NonNegativityViolation,
    OutOfBox,
    SpecMismatch,
    bilinear_average,
    cube_average,
    integrate,
    read_grid_file,
    write_grid_file,
)
from bifrac.lattice import _scalar_pow


class TestGridSpec:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GridSpec(1, 1.0, 24)

    def test_dimension_range(self):
        with pytest.raises(ValueError):
            GridSpec(3, 1.0, 8)

    @pytest.mark.parametrize("half_width", [math.nan, math.inf, -math.inf])
    def test_half_width_finite(self, half_width):
        with pytest.raises(ValueError):
            GridSpec(1, half_width, 8)

    def test_cell_geometry(self, spec32):
        assert spec32.h == pytest.approx(1.0 / 16.0)
        assert spec32.cell_count == 32
        assert spec32.box_cube == Cube((-1.0,), 2.0)


class TestGridFunction:
    def test_rejects_nonfinite(self, spec32):
        arr = np.zeros(32)
        arr[3] = np.inf
        with pytest.raises(ValueError):
            GridFunction(spec32, arr)

    def test_arithmetic_spec_mismatch(self, spec32):
        f = GridFunction.constant(spec32, 1.0)
        g = GridFunction.constant(GridSpec(1, 2.0, 32), 1.0)
        with pytest.raises(SpecMismatch):
            f + g

    def test_nonnegative_flag_checked(self, spec32):
        arr = np.zeros(32)
        arr[5] = -1.0
        with pytest.raises(NonNegativityViolation):
            GridFunction(spec32, arr, nonnegative=True)

    def test_immutable_samples(self, spec32):
        f = GridFunction.constant(spec32, 2.0)
        with pytest.raises(ValueError):
            f.samples[0] = 1.0

    def test_value_at_outside_box(self, spec32):
        f = GridFunction.constant(spec32, 3.0)
        assert f.value_at(5.0) == 0.0
        assert f.value_at(-1.0) == 3.0  # half-open left edge is inside
        assert f.value_at(1.0) == 0.0  # right edge is outside


class TestIntegrate:
    def test_constant_over_box(self, spec32):
        f = GridFunction.constant(spec32, 1.0)
        assert integrate(f, Cube((-1.0,), 2.0)) == pytest.approx(2.0, abs=1e-15)

    def test_indicator_mass(self, spec32):
        f = GridFunction.indicator(spec32, Cube((0.0,), 1.0))
        assert integrate(f, Cube((-1.0,), 2.0)) == pytest.approx(1.0, abs=1e-15)

    def test_midpoint_linear_exact(self):
        # f(x) = x sampled at midpoints over 16 cells of [0, 1): sums telescope
        spec = GridSpec(1, 1.0, 32)
        mids = spec.midpoints()
        arr = np.where(mids >= 0.0, mids, 0.0)
        f = GridFunction(spec, arr)
        assert integrate(f, Cube((0.0,), 1.0)) == pytest.approx(0.5, abs=1e-15)

    def test_non_aligned_rejected(self, spec32):
        f = GridFunction.constant(spec32, 1.0)
        with pytest.raises(NonAlignedCube):
            integrate(f, Cube((0.01,), 0.5))

    def test_out_of_box_rejected(self, spec32):
        f = GridFunction.constant(spec32, 1.0)
        with pytest.raises(OutOfBox):
            integrate(f, Cube((0.5,), 1.0))

    def test_additive_over_partition(self, spec32, rng):
        f = GridFunction(spec32, rng.normal(size=32))
        whole = integrate(f, Cube((-1.0,), 1.0))
        parts = integrate(f, Cube((-1.0,), 0.5)) + integrate(f, Cube((-0.5,), 0.5))
        assert whole == pytest.approx(parts, rel=1e-14)


class TestCubeAverage:
    def test_constant(self, spec32):
        f = GridFunction.constant(spec32, -3.0)
        for p in (0.5, 1.0, 2.0, 3.7):
            assert cube_average(f, Cube((-0.5,), 1.0), p) == pytest.approx(3.0)

    def test_indicator_measure_ratio(self, spec32):
        f = GridFunction.indicator(spec32, Cube((0.0,), 1.0))
        q = Cube((-1.0,), 2.0)
        assert cube_average(f, q, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert cube_average(f, q, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_degenerate_cube(self, spec32):
        f = GridFunction.constant(spec32, 1.0)
        with pytest.raises(DegenerateCube):
            cube_average(f, Cube((0.0,), 1e-9), 1.0)

    def test_monotone_in_f(self, spec32, rng):
        a = rng.uniform(0.0, 1.0, 32)
        b = a + rng.uniform(0.0, 1.0, 32)
        fa = GridFunction(spec32, a)
        fb = GridFunction(spec32, b)
        q = Cube((-0.25,), 0.75)
        assert cube_average(fa, q, 2.0) <= cube_average(fb, q, 2.0) + 1e-15

    def test_power_identity(self, spec32, rng):
        # cube-level power scaling: avg(|f|^l, p/l)^(1/l) == avg(f, p)
        f = GridFunction(spec32, rng.uniform(0.1, 2.0, 32))
        q = Cube((-0.5,), 1.5)
        p, ell = 3.0, 2.0
        lhs = cube_average(f.abs_pow(ell), q, p / ell) ** (1.0 / ell)
        rhs = cube_average(f, q, p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBilinearAverage:
    def test_ones(self, spec32):
        one = GridFunction.constant(spec32, 1.0)
        for q in (Cube((-1.0,), 2.0), Cube((0.0,), 0.5)):
            assert bilinear_average(one, one, q, 2.0, 2.0) == pytest.approx(1.0)

    def test_shared_indicator(self, spec32):
        q = Cube((0.0,), 0.5)
        f = GridFunction.indicator(spec32, q)
        assert bilinear_average(f, f, q, 2.0, 2.0) == pytest.approx(1.0)

    def test_disjoint_indicators(self):
        spec = GridSpec(1, 2.0, 32)
        f = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        g = GridFunction.indicator(spec, Cube((1.0,), 1.0))
        got = bilinear_average(f, g, Cube((0.0,), 2.0), 2.0, 2.0)
        assert got == pytest.approx(0.5, rel=1e-14)

    def test_conjugate_mismatch(self, spec32):
        one = GridFunction.constant(spec32, 1.0)
        with pytest.raises(ConjugateMismatch):
            bilinear_average(one, one, Cube((0.0,), 0.5), 2.0, 2.1)

    def test_clipped_outside_box(self, spec32):
        # cube sticking out: integration clips, measure stays full
        one = GridFunction.constant(spec32, 1.0)
        got = bilinear_average(one, one, Cube((0.0,), 2.0), 2.0, 2.0)
        assert got == pytest.approx(0.5, rel=1e-14)  # half the cube has mass


@settings(max_examples=40)
@given(
    data=st.lists(st.floats(0.05, 3.0), min_size=32, max_size=32),
    other=st.lists(st.floats(0.05, 3.0), min_size=32, max_size=32),
    r=st.floats(1.2, 4.0),
)
def test_holder_on_grid(data, other, r):
    # avg(|fg|) <= avg(|f|^r)^(1/r) avg(|g|^s)^(1/s)
    spec = GridSpec(1, 1.0, 32)
    s = r / (r - 1.0)
    f = GridFunction(spec, np.array(data))
    g = GridFunction(spec, np.array(other))
    q = Cube((-1.0,), 2.0)
    lhs = cube_average(f * g, q, 1.0)
    rhs = cube_average(f, q, r) * cube_average(g, q, s)
    assert lhs <= rhs * (1 + 1e-12)


class TestGridFileIO:
    def test_roundtrip(self, tmp_path, spec32, rng):
        f = GridFunction(spec32, rng.normal(size=32))
        path = tmp_path / "f.grid"
        write_grid_file(path, f)
        back = read_grid_file(path)
        assert back.spec == spec32
        assert np.array_equal(back.samples, f.samples)

    def test_roundtrip_2d(self, tmp_path, spec2d, rng):
        f = GridFunction(spec2d, rng.normal(size=(8, 8)))
        path = tmp_path / "f2.grid"
        write_grid_file(path, f)
        back = read_grid_file(path)
        assert np.array_equal(back.samples, f.samples)

    def test_rejects_bad_n(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("1 1.0 24\n" + " ".join(["0"] * 24) + "\n")
        with pytest.raises(InputUnreadable):
            read_grid_file(path)

    def test_rejects_short_body(self, tmp_path):
        path = tmp_path / "short.grid"
        path.write_text("1 1.0 8\n0 0 0\n")
        with pytest.raises(InputUnreadable):
            read_grid_file(path)

    @pytest.mark.parametrize(
        "text",
        ["1 nan 4\n0 0 0 0\n", "1 1.0 4\n0 nan 0 0\n", "3 1.0 2\n" + "0 " * 8 + "\n"],
        ids=["nan-half-width", "nan-sample", "dim-3"],
    )
    def test_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "bad.grid"
        path.write_text(text)
        with pytest.raises(InputUnreadable):
            read_grid_file(path)


@st.composite
def grid_functions(draw):
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((1, 2, 4, 8)))
    half_width = draw(st.floats(min_value=1e-300, max_value=1e300))
    spec = GridSpec(dim, half_width, n)
    samples = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n**dim, max_size=n**dim))
    return GridFunction(spec, np.array(samples).reshape(spec.shape))


def _grid_file_text(f):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.grid")
        write_grid_file(path, f)
        with open(path, encoding="ascii") as fh:
            return fh.read()


def _read_grid_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.grid")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return read_grid_file(path)


@settings(max_examples=60)
@given(grid_functions())
def test_grid_file_roundtrip_is_bit_exact(f):
    back = _read_grid_text(_grid_file_text(f))
    assert back.spec == f.spec
    assert back.samples.tobytes() == f.samples.tobytes()


BAD_HEADERS = ("", "1 1.0", "1 1.0 8 2", "x 1.0 8", "1 one 8", "1 1.0 8.0", "3 1.0 8", "0 1.0 8",
               "1 1.0 6", "1 1.0 0", "1 -1.0 8", "1 0.0 8", "1 nan 8", "1 inf 8")


@settings(max_examples=60)
@given(grid_functions(), st.data())
def test_malformed_grid_file_raises_input_unreadable(f, data):
    header, body = _grid_file_text(f).split("\n", 1)
    tokens = body.split()
    fault = data.draw(st.sampled_from(("truncated", "sample", "header")))
    if fault == "truncated":
        tokens = tokens[: data.draw(st.integers(0, len(tokens) - 1))]
    elif fault == "sample":
        k = data.draw(st.integers(0, len(tokens) - 1))
        tokens[k] = data.draw(st.sampled_from(("abc", "1.0.0", "--1", "1e", "0x10", "nan", "inf", "-inf")))
    else:
        header = data.draw(st.sampled_from(BAD_HEADERS))
    with pytest.raises(InputUnreadable):
        _read_grid_text(header + "\n" + " ".join(tokens) + "\n")


# +0.0 and -0.0, subnormals, the largest decade, +inf and NaN, next to ordinary values
POW_SPECIALS = (0.0, -0.0, 5e-324, 2.5e-310, 1e308, np.inf, np.nan, 1.0, 0.1, 3.0)


@settings(max_examples=200)
@given(
    st.lists(st.one_of(st.sampled_from(POW_SPECIALS), st.floats(0.0, 1e308)), min_size=1, max_size=8),
    st.lists(st.integers(0, 7), max_size=60),
    st.sampled_from((1.0, 0.5, 1.0 / 3.0, 0.3125, 1.25, 2.0, 3.0)),
)
def test_scalar_pow_equals_python_pow_bit_for_bit(pool, picks, expo):
    # many repeats of a few values; 3.0 is an odd integer, so -0.0 must stay -0.0
    values = np.array(pool + [pool[i % len(pool)] for i in picks])
    try:
        want = np.array([v ** expo for v in values.tolist()])
    except OverflowError:  # scalar pow past the float range raises, and so does _scalar_pow
        with pytest.raises(OverflowError):
            _scalar_pow(values, expo)
        return
    got = _scalar_pow(values, expo)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])
