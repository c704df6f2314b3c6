"""Operator oracles: closed-form kernel integrals and exhaustive cube sweeps."""

import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    _cube_power_integral,
    bi_frac_at_oracle,
    contains_point,
    family_from_cubes,
    far_weights,
    frac_int_at_oracle,
    kernel_table_2d_oracle,
    sec_power_integral_oracle,
    value_at_oracle,
)

from bifrac import (
    AlphaOutOfRange,
    AverageOverflow,
    Cube,
    DyadicGrid,
    GridFunction,
    GridSpec,
    POutOfRange,
    SpecMismatch,
    all_intervals,
    bi_frac,
    bi_frac_at,
    default_family,
    frac_int,
    frac_int_at,
    frac_maximal,
    kernel_table,
    maximal,
    multi_frac_int,
    multi_frac_int_at,
    multi_maximal,
    p_maximal,
    sparse_bound,
    weighted_bilinear_maximal,
)
from bifrac import operators
from bifrac.operators import _local_weights


class TestKernelTable:
    def test_alpha_range(self, spec32):
        with pytest.raises(AlphaOutOfRange):
            kernel_table(spec32, 1.0)
        with pytest.raises(AlphaOutOfRange):
            kernel_table(spec32, 0.0)

    def test_first_cell_closed_form(self):
        # offset cell [h/2, 3h/2): antiderivative gives the exact mass
        spec = GridSpec(1, 1.0, 32)
        h = spec.h
        table = kernel_table(spec, 0.5)
        expect = 2.0 * (math.sqrt(1.5 * h) - math.sqrt(0.5 * h))
        assert table.weights[31 + 1] == pytest.approx(expect, rel=1e-14)  # offset d at d + N - 1

    def test_origin_cell_closed_form(self):
        spec = GridSpec(1, 1.0, 32)
        h = spec.h
        table = kernel_table(spec, 0.5)
        assert table.weights[31] == pytest.approx(4.0 * math.sqrt(0.5 * h), rel=1e-14)

    def test_gauss_table_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(48)
        assert np.array_equal(operators._GAUSS_NODES, nodes)
        assert np.array_equal(operators._GAUSS_WEIGHTS, weights)

    def test_alpha_near_one_degenerates_to_lebesgue(self):
        # as alpha -> 1 each cell mass approaches the cell width h
        spec = GridSpec(1, 1.0, 32)
        table = kernel_table(spec, 1.0 - 1e-9)
        assert table.weights[31 + 3] == pytest.approx(spec.h, rel=1e-6)

    def test_symmetry(self, spec32):
        table = kernel_table(spec32, 0.7)
        assert np.array_equal(table.weights, table.weights[::-1])

    def test_cache_is_bounded_and_holds_a_runs_tables(self):
        # three 2D alphas and one 1D alpha, as in one benchmark workload
        keys = [(GridSpec(2, 1.0, 4), a) for a in (0.5, 1.0, 1.5)] + [(GridSpec(1, 1.0, 32), 0.5)]
        tables = [kernel_table(*key) for key in keys]
        assert all(kernel_table(*key) is table for key, table in zip(keys, tables))
        for k in range(1, 40):
            kernel_table(GridSpec(1, 1.0, 8), k / 40)
        info = operators._kernel_table.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_2d_masses_positive_and_symmetric(self):
        spec = GridSpec(2, 1.0, 8)
        table = kernel_table(spec, 1.3)
        assert np.all(table.weights > 0)
        # offsets (2, 3), (-2, 3) and (3, 2) at d + N - 1 per axis
        assert table.weights[9, 10] == table.weights[5, 10] == table.weights[10, 9]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_offsets_hold_every_offset_up_to_n_minus_1_at_d_plus_n_minus_1(self, dim):
        spec = GridSpec(dim, 1.0, 8)
        table = kernel_table(spec, 0.5 * dim)
        assert table.weights.shape == (15,) * dim and table.offsets.shape == (15,) * dim + (dim,)
        for d in product(range(-7, 8), repeat=dim):
            assert table.offsets[tuple(x + 7 for x in d)].tolist() == [x * spec.h for x in d]

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.99])
    @pytest.mark.parametrize("L", [1.0, 2.0, 3.0, 4.0])
    def test_2d_table_equals_the_per_cell_loop_bit_for_bit(self, L, alpha):
        for n in (1, 2, 4, 8, 16, 32, 64):
            weights = operators._kernel_table.__wrapped__(GridSpec(2, L, n), alpha).weights
            assert np.array_equal(weights, kernel_table_2d_oracle(GridSpec(2, L, n), alpha))
            assert np.array_equal(weights, weights.T)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.99])
    @pytest.mark.parametrize("L", [0.7, 1.1, 2.3])
    def test_2d_table_agrees_with_the_per_cell_loop_off_exact_edges(self, L, alpha):
        # here (d - 1/2)h + h and (d + 1/2)h can differ in the last bit, and the
        # four-corner difference both forms take magnifies that
        for n in (1, 2, 4, 8, 16, 32, 64):
            weights = operators._kernel_table.__wrapped__(GridSpec(2, L, n), alpha).weights
            np.testing.assert_allclose(weights, kernel_table_2d_oracle(GridSpec(2, L, n), alpha), rtol=1e-10, atol=0)
            assert np.array_equal(weights, weights.T)

    def test_2d_table_takes_one_angle_per_ordered_pair_of_edges(self, monkeypatch):
        sizes = []
        integrals = operators._sec_power_integrals
        monkeypatch.setattr(operators, "_sec_power_integrals", lambda alpha, t: sizes.append(len(t)) or integrals(alpha, t))
        for n in (1, 2, 8, 32):
            sizes.clear()
            operators._kernel_table.__wrapped__(GridSpec(2, 1.0, n), 0.5)
            assert sizes == [n * n]

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.99])
    def test_batched_sec_power_integrals_equal_the_scalar_quadrature_bit_for_bit(self, alpha):
        # every angle a 2D table takes at L = 1 and n <= 64, each break and
        # both of its float neighbours, just below the pole, random angles
        angles = set()
        for n in (1, 2, 4, 8, 16, 32, 64):
            h = GridSpec(2, 1.0, n).h
            edges = [(d - 0.5) * h + h for d in range(n)]
            angles.update(math.atan2(y, x) for x in edges for y in edges)
        breaks = operators._SEC_BREAKS[1:]
        t = np.concatenate((
            sorted(angles),
            breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, np.pi),
            [0.5 * math.pi - 1e-14], np.random.default_rng(21).uniform(0.0, 0.5 * math.pi, 500),
        ))
        t = t[(t > 0.0) & (t < 0.5 * math.pi)]
        want = [sec_power_integral_oracle(alpha, x) for x in t.tolist()]
        assert np.array_equal(operators._sec_power_integrals(alpha, t), want)

    def test_2d_total_mass_vs_polar(self):
        # sum of all cell masses approximates the disk integral of r^(a-2)
        spec = GridSpec(2, 1.0, 8)
        alpha = 1.2
        table = kernel_table(spec, alpha)
        total = float(np.sum(table.weights))
        # integral over the square [-L', L']^2 with L' = (N-1/2)h: between
        # the inscribed and circumscribed disks 2*pi*R^alpha/alpha
        lo = 2 * math.pi / alpha * ((8 - 0.5) * spec.h) ** alpha
        hi = 2 * math.pi / alpha * (math.sqrt(2) * (8 - 0.5) * spec.h) ** alpha
        assert lo * 0.98 < total < hi * 1.02


class TestBiFrac:
    def test_zero_input(self, spec32):
        zero = GridFunction.constant(spec32, 0.0)
        one = GridFunction.constant(spec32, 1.0)
        assert np.all(bi_frac(zero, one, 0.5).samples == 0.0)

    def test_spec_mismatch(self, spec32):
        other = GridSpec(1, 2.0, 32)
        with pytest.raises(SpecMismatch):
            bi_frac(GridFunction.constant(spec32, 1.0), GridFunction.constant(other, 1.0), 0.5)

    def test_closed_form_at_origin(self):
        spec = GridSpec(1, 4.0, 256)
        f = GridFunction.indicator(spec, Cube((-1.0,), 2.0))
        val = bi_frac_at(f, f, 0.5, 0.0)
        assert abs(val - 4.0) / 4.0 < 0.02

    def test_translation_covariance(self, rng):
        spec = GridSpec(1, 4.0, 64)
        arr_f = np.zeros(64)
        arr_g = np.zeros(64)
        arr_f[24:34] = rng.uniform(0.1, 1.0, 10)
        arr_g[26:38] = rng.uniform(0.1, 1.0, 12)
        f = GridFunction(spec, arr_f)
        g = GridFunction(spec, arr_g)
        base = bi_frac(f, g, 0.5)
        # both vanish on the last 5 cells, so a roll is a translation by 5 cells
        shifted = bi_frac(GridFunction(spec, np.roll(arr_f, 5)), GridFunction(spec, np.roll(arr_g, 5)), 0.5)
        assert np.allclose(shifted.samples[10:60], base.samples[5:55], rtol=1e-12)

    def test_dilation_homogeneity(self, rng):
        # f(2x) on the half-width spec has identical samples; outputs scale
        # by 2^-alpha exactly
        alpha = 0.6
        spec = GridSpec(1, 4.0, 128)
        half = GridSpec(1, 2.0, 128)
        arr_f = np.zeros(128)
        arr_g = np.zeros(128)
        arr_f[40:70] = rng.uniform(0.1, 1.0, 30)
        arr_g[50:80] = rng.uniform(0.1, 1.0, 30)
        big = bi_frac(GridFunction(spec, arr_f), GridFunction(spec, arr_g), alpha)
        small = bi_frac(GridFunction(half, arr_f), GridFunction(half, arr_g), alpha)
        assert np.allclose(small.samples, 2.0 ** (-alpha) * big.samples, rtol=1e-6)

    def test_bilinearity(self, spec32, rng):
        f1 = GridFunction(spec32, rng.uniform(0, 1, 32))
        f2 = GridFunction(spec32, rng.uniform(0, 1, 32))
        g = GridFunction(spec32, rng.uniform(0, 1, 32))
        lhs = bi_frac(f1 * 2.0 + f2 * 3.0, g, 0.5)
        rhs = bi_frac(f1, g, 0.5) * 2.0 + bi_frac(f2, g, 0.5) * 3.0
        assert np.allclose(lhs.samples, rhs.samples, rtol=1e-10)

    def test_2d_zero_and_symmetry(self, rng):
        spec = GridSpec(2, 1.0, 8)
        f = GridFunction(spec, rng.uniform(0, 1, (8, 8)))
        g = GridFunction(spec, rng.uniform(0, 1, (8, 8)))
        out_fg = bi_frac(f, g, 1.0)
        assert out_fg.samples.shape == (8, 8)
        assert np.all(np.isfinite(out_fg.samples))


class TestFracInt:
    def test_zero(self, spec32):
        zero = GridFunction.constant(spec32, 0.0)
        assert np.all(frac_int(zero, 0.5).samples == 0.0)

    def test_closed_form_inside_support(self):
        spec = GridSpec(1, 4.0, 256)
        f = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        assert frac_int_at(f, 0.5, 0.0) == pytest.approx(2.0, rel=1e-12)

    def test_closed_form_off_support(self):
        spec = GridSpec(1, 4.0, 256)
        f = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        expect = 2.0 * (math.sqrt(2.0) - 1.0)
        assert frac_int_at(f, 0.5, 2.0) == pytest.approx(expect, rel=1e-12)

    def test_grid_matches_point_eval_at_midpoints(self, spec32, rng):
        f = GridFunction(spec32, rng.uniform(0, 1, 32))
        out = frac_int(f, 0.5)
        for c in (0, 7, 18, 31):
            x = spec32.midpoints()[c]
            assert out.samples[c] == pytest.approx(frac_int_at(f, 0.5, x), rel=1e-12)


# The per-dimension Kahan loops that bi_frac and frac_int replaced with one
# offset sum, kept as the bit-level oracle for it.


def _kahan_add(acc, comp, sl, term):
    y = term - comp[sl]
    t = acc[sl] + y
    comp[sl] = (t - acc[sl]) - y
    acc[sl] = t


def oracle_bilinear_sum_1d(fs, gs, weights):
    n = len(fs)
    out = np.zeros(n)
    comp = np.zeros(n)
    for d in range(-(n - 1), n):
        lo, hi = abs(d), n - abs(d)
        if lo >= hi:
            continue
        w = weights[d + n - 1]
        if w == 0.0:
            continue
        term = fs[lo - d : hi - d] * gs[lo + d : hi + d] * w
        _kahan_add(out, comp, slice(lo, hi), term)
    return out


def oracle_bilinear_sum_2d(fs, gs, weights):
    n = fs.shape[0]
    out = np.zeros((n, n))
    comp = np.zeros((n, n))
    for d0 in range(-(n - 1), n):
        lo0, hi0 = abs(d0), n - abs(d0)
        if lo0 >= hi0:
            continue
        for d1 in range(-(n - 1), n):
            lo1, hi1 = abs(d1), n - abs(d1)
            if lo1 >= hi1:
                continue
            w = weights[d0 + n - 1, d1 + n - 1]
            if w == 0.0:
                continue
            term = (
                fs[lo0 - d0 : hi0 - d0, lo1 - d1 : hi1 - d1]
                * gs[lo0 + d0 : hi0 + d0, lo1 + d1 : hi1 + d1]
                * w
            )
            _kahan_add(out, comp, (slice(lo0, hi0), slice(lo1, hi1)), term)
    return out


def oracle_frac_int(fs, weights):
    n = fs.shape[0]
    out = np.zeros(fs.shape)
    comp = np.zeros(fs.shape)
    if fs.ndim == 1:
        for d in range(-(n - 1), n):
            lo, hi = max(0, d), min(n, n + d)
            if lo >= hi:
                continue
            term = fs[lo - d : hi - d] * weights[d + n - 1]
            _kahan_add(out, comp, slice(lo, hi), term)
    else:
        for d0 in range(-(n - 1), n):
            lo0, hi0 = max(0, d0), min(n, n + d0)
            if lo0 >= hi0:
                continue
            for d1 in range(-(n - 1), n):
                lo1, hi1 = max(0, d1), min(n, n + d1)
                if lo1 >= hi1:
                    continue
                term = fs[lo0 - d0 : hi0 - d0, lo1 - d1 : hi1 - d1] * weights[d0 + n - 1, d1 + n - 1]
                _kahan_add(out, comp, (slice(lo0, hi0), slice(lo1, hi1)), term)
    return out


@st.composite
def kernel_sum_cases(draw):
    """Data on a 1D or 2D grid, alpha, and a full, local or far kernel table."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((1, 2, 4, 8, 16, 32, 64) if dim == 1 else (1, 2, 4, 8, 16)))
    spec = GridSpec(dim, 1.0, n)
    alpha = draw(st.floats(0.05, dim - 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # signed data with exact zeros, so cancellation and skipped terms both occur
    f, g = (np.where(rng.random(spec.shape) < 0.2, 0.0, rng.uniform(-2.0, 2.0, spec.shape)) for _ in range(2))
    part = draw(st.sampled_from(("full", "local", "far")))
    Q0 = Cube((0.0,) * dim, draw(st.sampled_from((0.0625, 0.25, 0.5, 1.0))))
    weights = kernel_table(spec, alpha).weights
    if part != "full":
        weights = far_weights(spec, alpha, Q0) if part == "far" else _local_weights(spec, alpha, Q0)
    return GridFunction(spec, f), GridFunction(spec, g), alpha, weights


class TestOffsetSumOracle:
    @settings(max_examples=80)
    @given(kernel_sum_cases())
    def test_the_bilinear_offset_sum_equals_the_per_dimension_loops(self, case):
        f, g, alpha, weights = case
        oracle = oracle_bilinear_sum_1d if f.spec.dim == 1 else oracle_bilinear_sum_2d
        want = oracle(f.samples, g.samples, weights)
        assert np.array_equal(operators._offset_sum(weights, f.samples, g.samples), want)
        if np.array_equal(weights, kernel_table(f.spec, alpha).weights):  # bi_frac's own table
            assert np.array_equal(bi_frac(f, g, alpha).samples, want)

    @settings(max_examples=40)
    @given(kernel_sum_cases())
    def test_frac_int_equals_the_per_dimension_loops(self, case):
        f, _, alpha, _ = case
        want = oracle_frac_int(f.samples, kernel_table(f.spec, alpha).weights)
        assert np.array_equal(frac_int(f, alpha).samples, want)

    @settings(max_examples=40)
    @given(kernel_sum_cases(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_a_stack_sums_each_grid_as_a_call_on_it_alone(self, case, k, seed):
        # the bilinear sum and the convolution, on the full table and on either half of the split
        f, g, _, weights = case
        rng = np.random.default_rng(seed)
        fs, gs = (np.stack([x.samples] + [rng.uniform(-2.0, 2.0, x.spec.shape) for _ in range(k - 1)]) for x in (f, g))
        got = operators._offset_sum(weights, fs, gs)
        want = np.array([operators._offset_sum(weights, a, b) for a, b in zip(fs, gs)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        got = operators._offset_sum(weights, fs)
        want = np.array([operators._offset_sum(weights, a) for a in fs])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_split_halves_equal_the_loops_on_their_tables(self, rng):
        spec = GridSpec(2, 2.0, 16)
        f = GridFunction(spec, rng.uniform(-1.0, 1.0, spec.shape))
        g = GridFunction(spec, rng.uniform(-1.0, 1.0, spec.shape))
        Q0 = Cube((0.0, 0.0), 0.5)
        for weights in (_local_weights(spec, 0.9, Q0), far_weights(spec, 0.9, Q0)):
            half = operators._offset_sum(weights, f.samples, g.samples)
            assert np.array_equal(half, oracle_bilinear_sum_2d(f.samples, g.samples, weights))


@st.composite
def multi_frac_cases(draw):
    """Signed data on a 1D (N <= 32) or 2D (N <= 8) grid and alpha in (0, 2n)."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((1, 2, 4, 8, 16, 32) if dim == 1 else (1, 2, 4, 8)))
    spec = GridSpec(dim, draw(st.sampled_from((0.5, 1.0, 3.0))), n)
    alpha = draw(st.floats(0.0, 2.0 * dim, exclude_min=True, exclude_max=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f1, f2 = (np.where(rng.random(spec.shape) < 0.2, 0.0, rng.uniform(-2.0, 2.0, spec.shape)) for _ in range(2))
    return GridFunction(spec, f1), GridFunction(spec, f2), alpha


def _multi_data(spec):
    """Nonnegative data with exact zeros, fixed by formula."""
    i = np.arange(spec.cell_count)
    f1 = ((3 * i + 1) % 7 / 8.0).reshape(spec.shape)
    f2 = (((5 * i + 2) % 9 + 1) / 16.0).reshape(spec.shape)
    return GridFunction(spec, f1), GridFunction(spec, f2)


class TestMultiFracInt:
    def test_zero(self, spec32):
        zero = GridFunction.constant(spec32, 0.0)
        one = GridFunction.constant(spec32, 1.0)
        assert np.all(multi_frac_int(zero, one, 1.0).samples == 0.0)

    def test_alpha_range_wider(self, spec32):
        one = GridFunction.constant(spec32, 1.0)
        multi_frac_int_at(one, one, 1.5, (0.0,))  # alpha in (n, 2n) allowed
        multi_frac_int(one, one, 1.5)
        with pytest.raises(AlphaOutOfRange):
            multi_frac_int_at(one, one, 2.0, (0.0,))
        with pytest.raises(AlphaOutOfRange):
            multi_frac_int(one, one, 2.0)

    def test_symmetry_in_arguments(self, rng):
        spec = GridSpec(1, 1.0, 16)
        f1 = GridFunction(spec, rng.uniform(0, 1, 16))
        f2 = GridFunction(spec, rng.uniform(0, 1, 16))
        a = multi_frac_int(f1, f2, 0.8)
        b = multi_frac_int(f2, f1, 0.8)
        assert np.allclose(a.samples, b.samples, rtol=1e-12)

    def test_closed_form_double_log(self):
        spec = GridSpec(1, 4.0, 128)
        f = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        val = multi_frac_int_at(f, f, 1.0, (0.0,))
        expect = 2.0 * math.log(2.0)
        assert abs(val - expect) / expect < 0.02

    @settings(max_examples=60)
    @given(multi_frac_cases())
    def test_grid_equals_the_point_evaluator_at_every_midpoint(self, case):
        f1, f2, alpha = case
        spec = f1.spec
        got = multi_frac_int(f1, f2, alpha).samples
        absolute = (GridFunction(spec, np.abs(f1.samples)), GridFunction(spec, np.abs(f2.samples)))
        mids = spec.midpoints()
        for cell in np.ndindex(spec.shape):
            x = tuple(mids[list(cell)])
            want = multi_frac_int_at(f1, f2, alpha, x)
            # scaled by the integral of |f1| |f2|, which a signed sum may cancel
            assert abs(got[cell] - want) <= 1e-12 * multi_frac_int_at(*absolute, alpha, x)

    # multi_frac_int_at at 19f7a4e, before its near-pair loops were vectorized,
    # at a midpoint, a cell edge (two cells within h/2), in 2D also a vertex
    # (none within h/2), the origin and two generic points; a row per alpha
    PINNED = {
        1: (
            GridSpec(1, 1.0, 16),
            [(-0.3125,), (0.25,), (0.0,), (0.3,), (-0.61,)],
            {
                0.5: [0.7875055383067381, 0.8290865913453248, 0.8230151404030359, 1.048382329855846, 0.8487608600450967],
                1.3: [0.5199209081246162, 0.534503076077747, 0.5330515865794694, 0.5538988478567289, 0.47789897854261054],
            },
        ),
        2: (
            GridSpec(2, 1.0, 8),
            [(-0.375, 0.375), (0.25, -0.375), (0.25, -0.5), (0.0, 0.0), (0.3, -0.17), (0.71, 0.05)],
            {
                1.0: [
                    1.314017568723535, 0.9494517640443136, 0.847500872099645,
                    1.0920804850314045, 1.1528179578300817, 0.8004772006340106,
                ],
                2.6: [
                    1.1083859850777154, 1.0673809045820333, 1.0104620154773707,
                    1.2122577510749157, 1.1068549679182242, 0.9022351444790702,
                ],
            },
        ),
    }

    @pytest.mark.parametrize("dim", [1, 2])
    def test_point_evaluator_keeps_its_pinned_values(self, dim):
        spec, points, rows = self.PINNED[dim]
        f1, f2 = _multi_data(spec)
        for alpha, want in rows.items():
            got = [multi_frac_int_at(f1, f2, alpha, x) for x in points]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# --- maximal operators: exhaustive enumeration oracle -----------------------


def oracle_sweep(f_list, family, cube_value):
    """Independent max-sweep: loop cells, loop cubes, keep the best value."""
    spec = f_list[0].spec
    n = spec.cells_per_axis
    out = np.zeros(spec.shape)
    mids = spec.midpoints()
    for c in range(n):
        x = mids[c]
        best = -np.inf
        for k, Q in enumerate(family.cubes):
            if not (Q.corner[0] <= x < Q.corner[0] + Q.side):
                continue
            best = max(best, cube_value(k, Q))
        out[c] = 0.0 if not np.isfinite(best) else best
    return out


def oracle_avg(f, family, k, Q, p):
    h = f.spec.h
    i, j = int(family.lo[k, 0]), int(family.hi[k, 0])
    total = np.sum(np.abs(f.samples[i:j]) ** p) * h
    return (total / Q.measure) ** (1.0 / p)


def oracle_m3q(f, g, Q, r, s):
    spec = f.spec
    h = spec.h
    n = spec.cells_per_axis
    w = round(Q.side / h)
    lo = round((Q.corner[0] + spec.half_width) / h) - w
    hi = lo + 3 * w
    sl = slice(max(0, lo), min(n, hi))
    meas3 = (3.0 * Q.side) ** 1
    fi = np.sum(np.abs(f.samples[sl]) ** r) * h
    gi = np.sum(np.abs(g.samples[sl]) ** s) * h
    return (fi / meas3) ** (1.0 / r) * (gi / meas3) ** (1.0 / s)


@pytest.fixture(scope="module")
def osc_pair():
    spec = GridSpec(1, 4.0, 32)
    rng = np.random.default_rng(7)
    f = GridFunction(spec, rng.uniform(0.0, 2.0, 32), nonnegative=True)
    g = GridFunction(spec, rng.uniform(0.0, 2.0, 32), nonnegative=True)
    return spec, f, g


class TestMaximalOracle:
    def test_constant(self, spec32):
        c = GridFunction.constant(spec32, -1.5)
        out = maximal(c)
        assert np.allclose(out.samples, 1.5)

    def test_dominates_pointwise(self, osc_pair):
        spec, f, _ = osc_pair
        out = maximal(f)
        assert np.all(out.samples >= np.abs(f.samples) - 1e-15)

    def test_traveling_indicator(self):
        # mass 1 at [0,1): at x = 2 + h/2 the best interval is [0, 2 + h)
        spec = GridSpec(1, 4.0, 64)
        f = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        out = maximal(f)
        c = spec.cell_of_point((2.0 + spec.h / 2,))[0]
        fam = all_intervals(spec)
        brute = oracle_sweep([f], fam, lambda k, Q: oracle_avg(f, fam, k, Q, 1.0))
        assert out.samples[c] == brute[c]
        assert out.samples[c] == pytest.approx(1.0 / (2.0 + spec.h), rel=1e-12)

    def test_exact_oracle_equality_m(self, osc_pair):
        spec, f, _ = osc_pair
        fam = all_intervals(spec)
        got = maximal(f, fam).samples
        want = oracle_sweep([f], fam, lambda k, Q: oracle_avg(f, fam, k, Q, 1.0))
        assert np.array_equal(got, want)

    def test_exact_oracle_equality_frac(self, osc_pair):
        spec, f, _ = osc_pair
        fam = all_intervals(spec)
        alpha = 0.5
        got = frac_maximal(f, alpha, fam).samples
        want = oracle_sweep(
            [f], fam, lambda k, Q: Q.side ** alpha * oracle_avg(f, fam, k, Q, 1.0)
        )
        assert np.array_equal(got, want)

    def test_exact_oracle_equality_p(self, osc_pair):
        spec, f, _ = osc_pair
        fam = all_intervals(spec)
        got = p_maximal(f, 2.5, fam).samples
        want = oracle_sweep([f], fam, lambda k, Q: oracle_avg(f, fam, k, Q, 2.5))
        assert np.array_equal(got, want)

    def test_exact_oracle_equality_multi(self, osc_pair):
        spec, f, g = osc_pair
        fam = all_intervals(spec)
        alpha, r1, r2 = 0.4, 1.6, 2.4
        got = multi_maximal(f, g, alpha, r1, r2, fam).samples
        want = oracle_sweep(
            [f, g],
            fam,
            lambda k, Q: Q.side ** alpha
            * oracle_avg(f, fam, k, Q, r1)
            * oracle_avg(g, fam, k, Q, r2),
        )
        assert np.array_equal(got, want)

    def test_exact_oracle_equality_weighted(self, osc_pair):
        spec, f, g = osc_pair
        rng = np.random.default_rng(21)
        w1 = GridFunction(spec, rng.uniform(0.5, 2.0, 32), nonnegative=True)
        w2 = GridFunction(spec, rng.uniform(0.5, 2.0, 32), nonnegative=True)
        fam = all_intervals(spec)
        alpha, r, s, q = 0.3, 2.0, 2.0, 2.5
        got = weighted_bilinear_maximal(f, g, w1, w2, alpha, r, s, q, fam).samples
        nu = GridFunction(spec, w1.samples * w2.samples, nonnegative=True)
        want = oracle_sweep(
            [f, g],
            fam,
            lambda k, Q: Q.side ** alpha
            * oracle_m3q(f, g, Q, r, s)
            * oracle_avg(nu, fam, k, Q, q),
        )
        assert np.array_equal(got, want)

    def test_p_maximal_range(self, osc_pair):
        _, f, _ = osc_pair
        with pytest.raises(POutOfRange):
            p_maximal(f, 1.0)

    def test_maximal_order_relations(self, osc_pair):
        spec, f, _ = osc_pair
        fam = all_intervals(spec)
        m = maximal(f, fam).samples
        mp = p_maximal(f, 2.0, fam).samples
        assert np.all(mp >= m - 1e-14)
        alpha = 0.5
        ma = frac_maximal(f, alpha, fam).samples
        biggest = max(Q.side for Q in fam.cubes)
        assert np.all(ma <= biggest ** alpha * m + 1e-12)

    def test_frac_maximal_below_frac_int(self, osc_pair):
        # 1D comparison: the fractional maximal never exceeds the integral
        spec, f, _ = osc_pair
        alpha = 0.5
        ma = frac_maximal(f, alpha).samples
        ia = frac_int(f, alpha).samples
        assert np.all(ma <= ia * (1 + 1e-12))

    def test_constant_multi_maximal_alpha(self, spec32):
        one = GridFunction.constant(spec32, 1.0)
        fam = all_intervals(spec32)
        alpha = 0.7
        out = multi_maximal(one, one, alpha, 2.0, 2.0, fam)
        assert np.allclose(out.samples, 2.0 ** alpha, rtol=1e-12)

    def test_weighted_reduces_without_weights(self, osc_pair):
        spec, f, g = osc_pair
        one = GridFunction.constant(spec, 1.0)
        fam = all_intervals(spec)
        a = weighted_bilinear_maximal(f, g, one, one, 0.4, 2.0, 2.0, 5.0, fam)
        b = weighted_bilinear_maximal(f, g, one, one, 0.4, 2.0, 2.0, 1.0, fam)
        assert np.allclose(a.samples, b.samples, rtol=1e-12)


class TestSparseBound:
    def test_zero(self):
        spec = GridSpec(1, 4.0, 64)
        zero = GridFunction.constant(spec, 0.0)
        q0 = Cube((0.0,), 4.0)
        out = sparse_bound(zero, zero, 0.5, 2.0, 2.0, q0, DyadicGrid((0.0,)))
        assert np.all(out.samples == 0.0)

    def test_flat_geometric_series(self):
        # constant data: each level contributes side^alpha once per point
        spec = GridSpec(1, 4.0, 64)
        one = GridFunction.constant(spec, 1.0)
        q0 = Cube((0.0,), 2.0)
        alpha = 0.5
        out = sparse_bound(one, one, alpha, 2.0, 2.0, q0, DyadicGrid((0.0,)))
        sides = [2.0 * 2.0 ** (-k) for k in range(5)]  # 2 -> 1/8
        expect = sum(s ** alpha for s in sides)
        c = spec.cell_of_point((1.0 + spec.h / 2,))[0]
        assert out.samples[c] == pytest.approx(expect, rel=1e-12)

    def test_dominates_local_part(self):
        spec = GridSpec(1, 4.0, 64)
        rng = np.random.default_rng(5)
        arr = np.zeros(64)
        arr[34:44] = rng.uniform(0.2, 1.0, 10)
        f = GridFunction(spec, arr, nonnegative=True)
        q0 = Cube((0.0,), 4.0)
        weights = (_local_weights(spec, 0.5, q0), far_weights(spec, 0.5, q0))
        local, glob = (operators._offset_sum(w, f.samples, f.samples) for w in weights)
        sb = sparse_bound(f, f, 0.5, 2.0, 2.0, q0, DyadicGrid((0.0,)))
        full = bi_frac(f, f, 0.5)
        assert np.allclose(local + glob, full.samples, rtol=1e-12)
        cells = slice(32, 64)
        ratio = local[cells] / np.maximum(sb.samples[cells], 1e-300)
        assert np.max(ratio) < 4.0  # see harness calibration for the real bound


class TestOperatorErrors:
    def test_weighted_maximal_rejects_zero_weight(self, osc_pair):
        spec, f, g = osc_pair
        from bifrac import NonPositiveWeight

        bad = GridFunction.constant(spec, 0.0)
        with pytest.raises(NonPositiveWeight):
            weighted_bilinear_maximal(f, g, bad, bad, 0.3, 2.0, 2.0, 2.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_cube_value_past_the_float_range_is_named(self, dim):
        spec = GridSpec(dim, 1.0, 8)
        big, huge = np.zeros(spec.shape), np.zeros(spec.shape)
        big[(3,) * dim] = 1e200
        huge[(3,) * dim] = huge[(4,) * dim] = 1.5e308  # their sum leaves the float range
        big, huge = GridFunction(spec, big), GridFunction(spec, huge)
        zero, one = GridFunction.constant(spec, 0.0), GridFunction.constant(spec, 1.0)
        calls = [
            (lambda: maximal(huge), "maximal"),
            (lambda: frac_maximal(huge, 0.5), "frac_maximal with alpha = 0.5"),
            (lambda: p_maximal(big, 2.5), "p_maximal with p = 2.5"),
            # inf * 0 on the cubes where the second function vanishes
            (lambda: multi_maximal(big, zero, 0.5, 2.0, 2.0), "multi_maximal with alpha = 0.5, r1 = 2.0, r2 = 2.0"),
            (
                lambda: weighted_bilinear_maximal(big, one, one, one, 0.5, 2.0, 2.0, 1.0),
                "weighted_bilinear_maximal with alpha = 0.5, r = 2.0, s = 2.0, q = 1.0",
            ),
        ]
        for call, name in calls:
            with pytest.raises(AverageOverflow, match=f"^{re.escape(name)} leaves the float range"):
                call()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_product_weight_past_the_float_range_is_named(self, dim):
        # each weight is finite, but w1 * w2 = 1e400 is not
        spec = GridSpec(dim, 1.0, 8)
        one, big = GridFunction.constant(spec, 1.0), GridFunction.constant(spec, 1e200)
        name = "weighted_bilinear_maximal with alpha = 0.5, r = 2.0, s = 2.0, q = 1.0"
        with pytest.raises(AverageOverflow, match=f"^{re.escape(name)} leaves the float range in the product weight"):
            weighted_bilinear_maximal(one, one, big, big, 0.5, 2.0, 2.0, 1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_kernel_sum_past_the_float_range_is_named(self, dim):
        # every bilinear term 1e200 * 1e200 leaves the float range, and so does
        # the convolution's sum of 1e308 cells; a RuntimeWarning fails the test
        spec = GridSpec(dim, 1.0, 16 if dim == 1 else 8)
        big, huge = GridFunction.constant(spec, 1e200), GridFunction.constant(spec, 1e308)
        calls = [
            (lambda: bi_frac(big, big, 0.5), "bi_frac with alpha = 0.5"),
            (lambda: frac_int(huge, 0.5), "frac_int with alpha = 0.5"),
            (lambda: multi_frac_int(big, big, 0.5), "multi_frac_int with alpha = 0.5"),
        ]
        for call, name in calls:
            with pytest.raises(AverageOverflow, match=f"^{re.escape(name)} leaves the float range on a cell$"):
                call()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", ["bi_frac_at", "frac_int_at", "multi_frac_int_at"])
    def test_a_point_value_past_the_float_range_is_named(self, dim, name):
        # bilinear terms 1e200 * 1e200, and a sum of 1e308 cells (the 1D
        # frac_int_at takes the exact antiderivative branch); a RuntimeWarning
        # fails the test
        spec = GridSpec(dim, 1.0, 16 if dim == 1 else 8)
        f = GridFunction.constant(spec, 1e308 if name == "frac_int_at" else 1e200)
        functions = (f,) if name == "frac_int_at" else (f, f)
        with pytest.raises(AverageOverflow, match=f"^{name} with alpha = 0.5 leaves the float range at the point$"):
            getattr(operators, name)(*functions, 0.5, (0.1,) * dim)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cells_no_cube_covers_read_zero(self, dim):
        spec = GridSpec(dim, 1.0, 8)
        fam = family_from_cubes(spec, [Cube((0.0,) * dim, 0.5)])
        got = maximal(GridFunction.constant(spec, 2.0), fam).samples
        want = np.zeros(spec.shape)
        want[(slice(4, 6),) * dim] = 2.0
        assert np.array_equal(got, want)

    def test_pointwise_domination_with_constant(self, osc_pair):
        # weighted bilinear maximal is dominated by the pair constant times
        # the product maximal of the weighted data, cell by cell
        from bifrac import WeightVector, iida_constant, nested_pairs

        spec, f, g = osc_pair
        rng = np.random.default_rng(33)
        w1 = GridFunction(spec, rng.uniform(0.5, 2.0, 32), nonnegative=True)
        w2 = GridFunction(spec, rng.uniform(0.5, 2.0, 32), nonnegative=True)
        fam = all_intervals(spec)
        prs = nested_pairs(fam)
        a, r, s, p1, p2, q, q0 = 1.25, 2.0, 2.0, 4.0, 4.0, 6.0, 6.0
        lhs = weighted_bilinear_maximal(f, g, w1, w2, 1.0 / 3.0, r, s, a * q, fam)
        const = iida_constant(
            WeightVector(w1, w2),
            a * q0,
            q,
            s * p1 / (s + p1),
            r * p2 / (r + p2),
            prs,
        )
        rhs = multi_maximal(f * w1, g * w2, 1.0 / 3.0, p1 / a, p2 / a, fam)
        assert np.all(lhs.samples <= 1.2 * const.value * rhs.samples + 1e-12)


def test_unit_cell_mass_closed_form():
    # mass of the kernel over one box-aligned cell [0, h): the exact-cell
    # machinery gives the antiderivative value 2 sqrt(h)
    spec = GridSpec(1, 1.0, 32)
    h = spec.h
    cell = Cube((0.0,), h)
    chi = GridFunction.indicator(spec, cell)
    got = frac_int_at(chi, 0.5, h)  # = int_0^h (h - y)^(-1/2) dy
    assert got == pytest.approx(2.0 * math.sqrt(h), rel=1e-13)


class Test2DOperators:
    def test_grid_matches_point_eval_2d(self, rng):
        spec = GridSpec(2, 1.0, 8)
        f = GridFunction(spec, rng.uniform(0, 1, (8, 8)))
        g = GridFunction(spec, rng.uniform(0, 1, (8, 8)))
        out = bi_frac(f, g, 1.2)
        mids = spec.midpoints()
        for (i, j) in ((0, 0), (3, 5), (7, 7)):
            want = bi_frac_at(f, g, 1.2, (mids[i], mids[j]))
            assert out.samples[i, j] == pytest.approx(want, rel=1e-12)

    def test_frac_int_grid_matches_point_eval_2d(self, rng):
        spec = GridSpec(2, 1.0, 8)
        f = GridFunction(spec, rng.uniform(-1, 1, (8, 8)))
        out = frac_int(f, 1.2)
        mids = spec.midpoints()
        for (i, j) in ((0, 0), (3, 5), (7, 2)):
            want = frac_int_at(f, 1.2, (mids[i], mids[j]))
            assert out.samples[i, j] == pytest.approx(want, rel=1e-12)

    def test_frac_int_2d_constant_lower_bound(self):
        # I_alpha of the indicator of the box at the center exceeds the
        # inscribed-disk closed form and stays below the circumscribed one
        spec = GridSpec(2, 1.0, 16)
        one = GridFunction.constant(spec, 1.0)
        alpha = 1.0
        out = frac_int(one, alpha)
        center = out.samples[8, 8]
        import math as _m

        lo = 2 * _m.pi * (1.0 - spec.h)  # disk radius ~1 inscribed, alpha=1: 2*pi*R
        hi = 2 * _m.pi * _m.sqrt(2.0)
        assert lo * 0.9 < center < hi

    def test_maximal_2d_constant(self):
        spec = GridSpec(2, 1.0, 8)
        c = GridFunction.constant(spec, 2.0)
        out = maximal(c)
        assert np.allclose(out.samples, 2.0, rtol=1e-12)

    def test_multi_maximal_2d_matches_brute(self, rng):
        from bifrac.families import default_family

        spec = GridSpec(2, 1.0, 8)
        f = GridFunction(spec, rng.uniform(0, 1, (8, 8)), nonnegative=True)
        g = GridFunction(spec, rng.uniform(0, 1, (8, 8)), nonnegative=True)
        fam = default_family(spec)
        alpha, r1, r2 = 0.5, 2.0, 3.0
        got = multi_maximal(f, g, alpha, r1, r2, fam)
        mids = spec.midpoints()
        for (ci, cj) in ((0, 0), (4, 2), (7, 6)):
            x = (mids[ci], mids[cj])
            best = 0.0
            for Q in fam.cubes:
                if not contains_point(Q, x):
                    continue
                a1 = (_cube_power_integral(f, r1, Q) / Q.measure) ** (1 / r1)
                a2 = (_cube_power_integral(g, r2, Q) / Q.measure) ** (1 / r2)
                best = max(best, Q.side ** alpha * a1 * a2)
            assert got.samples[ci, cj] == pytest.approx(best, rel=1e-10)


def test_bi_frac_closed_form_profile():
    # symmetric indicator pair: BI_alpha(x) = (2/alpha) (1 - |x|)^alpha for
    # |x| < 1, met exactly at cell midpoints for step data
    spec = GridSpec(1, 4.0, 64)
    alpha = 0.25
    chi = GridFunction.indicator(spec, Cube((-1.0,), 2.0))
    out = bi_frac(chi, chi, alpha)
    mids = spec.midpoints()
    inside = np.abs(mids) < 1.0 - spec.h
    expect = (2.0 / alpha) * (1.0 - np.abs(mids[inside])) ** alpha
    assert np.allclose(out.samples[inside], expect, rtol=1e-12)


# the grids of the point-evaluator tests: 1D N <= 64 and 2D N <= 16
POINT_GRIDS = [(1, 1), (1, 2), (1, 16), (1, 64), (2, 1), (2, 2), (2, 8), (2, 16)]


@st.composite
def point_cases(draw, dim, n):
    """Signed data with zeros on a grid, alpha in (0, n), and points whose
    coordinates are random, cell midpoints, cell edges (both box edges
    included), one float below a cell edge (which the rule's 1e-12 puts in
    the cell above) or outside the box."""
    spec = GridSpec(dim, draw(st.sampled_from((0.3, 1.0, 3.0))), n)
    alpha = draw(st.floats(0.05, dim - 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f, g = (np.where(rng.random(spec.shape) < 0.2, 0.0, rng.uniform(-2.0, 2.0, spec.shape)) for _ in range(2))
    L, h = spec.half_width, spec.h
    coordinate = st.one_of(
        st.floats(-1.5 * L, 1.5 * L),
        st.integers(0, n - 1).map(lambda i: -L + (i + 0.5) * h),
        st.integers(0, n).map(lambda i: -L + i * h),
        st.integers(0, n).map(lambda i: float(np.nextafter(-L + i * h, -np.inf))),
        st.floats(L, 3.0 * L) | st.floats(-3.0 * L, -L - h / 4),
    )
    points = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=4))
    return GridFunction(spec, f), GridFunction(spec, g), alpha, points


class TestPointEvaluators:
    @pytest.mark.parametrize("dim, n", POINT_GRIDS)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_equal_the_per_offset_loops(self, dim, n, data):
        f, g, alpha, points = data.draw(point_cases(dim, n))
        for p in points:
            assert bi_frac_at(f, g, alpha, p) == bi_frac_at_oracle(f, g, alpha, p)
            if f.spec.dim == 2:
                assert frac_int_at(f, alpha, p) == frac_int_at_oracle(f, alpha, p)

    @pytest.mark.parametrize("dim, n", POINT_GRIDS)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_values_at_equals_the_cell_rule(self, dim, n, data):
        f, _, _, points = data.draw(point_cases(dim, n))
        many = f.values_at(np.array(points))
        for p, v in zip(points, many.tolist()):
            assert v == value_at_oracle(f, p)
        spec = f.spec
        L = spec.half_width
        # the box is half-open: its lower corner is inside, its upper edges are not
        corners = np.array([(-L,) * spec.dim, (L,) * spec.dim])
        assert f.values_at(corners).tolist() == [f.samples[(0,) * spec.dim], 0.0]
        assert f.values_at(np.full((2, 3, spec.dim), -L)).tolist() == [[f.samples[(0,) * spec.dim]] * 3] * 2

    @pytest.mark.parametrize("x", [-0.37, 0.013, 0.5 + 1e-3, 0.97, 1.31, 2.6])
    def test_1d_frac_int_at_is_the_exact_integral_off_the_midpoints(self, x):
        # I_alpha(chi_[0, 1))(x) = (sign(x)|x|^alpha - sign(x - 1)|x - 1|^alpha) / alpha
        # at any x; the midpoint sum over the kernel offsets would not give it
        spec, alpha = GridSpec(1, 4.0, 64), 0.4
        f = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        exact = (math.copysign(abs(x) ** alpha, x) - math.copysign(abs(x - 1.0) ** alpha, x - 1.0)) / alpha
        assert frac_int_at(f, alpha, x) == pytest.approx(exact, rel=1e-12)
        table = kernel_table(spec, alpha)
        midpoint_sum = math.fsum(f.values_at(x - table.offsets) * table.weights)
        assert abs(midpoint_sum - exact) > 1e-6 * abs(exact)


_NAN = math.nan


def _nan_sites():
    """(call, error) per range check on an exponent, each handed a NaN; a
    check written `x < lo` lets NaN through, `not (lo <= x)` does not."""
    from bifrac import (
        ConjugateMismatch,
        ExponentOrder,
        WeightVector,
        ap_constant,
        cz_decompose,
        iida_constant,
        lp_norm,
        multiple_apq_constant,
        nested_pairs,
        reverse_holder_probe,
        vector_morrey_norm,
    )
    from bifrac.lattice import check_conjugate

    spec = GridSpec(1, 4.0, 16)
    w = GridFunction.constant(spec, 1.0)
    wv, fam = WeightVector(w, w), all_intervals(spec)
    pairs = nested_pairs(fam)
    q0, grid = Cube((0.0,), 4.0), DyadicGrid((0.0,))
    return {
        "weights-ap-p": (lambda: ap_constant(w, _NAN, fam), POutOfRange),
        "weights-multiple-apq-p1": (lambda: multiple_apq_constant(wv, _NAN, 2.0, 3.0, fam), POutOfRange),
        "weights-multiple-apq-p2": (lambda: multiple_apq_constant(wv, 2.0, _NAN, 3.0, fam), POutOfRange),
        "weights-multiple-apq-q": (lambda: multiple_apq_constant(wv, 2.0, 2.0, _NAN, fam), POutOfRange),
        "weights-pair-p1": (lambda: iida_constant(wv, 4.0, 3.0, _NAN, 2.0, pairs), POutOfRange),
        "weights-pair-p2": (lambda: iida_constant(wv, 4.0, 3.0, 2.0, _NAN, pairs), POutOfRange),
        "weights-pair-q0": (lambda: iida_constant(wv, _NAN, 3.0, 2.0, 2.0, pairs), POutOfRange),
        "weights-pair-q": (lambda: iida_constant(wv, 4.0, _NAN, 2.0, 2.0, pairs), POutOfRange),
        "weights-reverse-holder-epsilon": (lambda: reverse_holder_probe(w, _NAN, fam), POutOfRange),
        "operators-p-maximal-p": (lambda: p_maximal(w, _NAN), POutOfRange),
        "operators-multi-maximal-r1": (lambda: multi_maximal(w, w, 0.5, _NAN, 2.0), POutOfRange),
        "operators-multi-maximal-r2": (lambda: multi_maximal(w, w, 0.5, 2.0, _NAN), POutOfRange),
        "operators-weighted-bilinear-maximal-q": (
            lambda: weighted_bilinear_maximal(w, w, w, w, 0.5, 2.0, 2.0, _NAN),
            POutOfRange,
        ),
        "lattice-check-conjugate-r": (lambda: check_conjugate(_NAN, 2.0), ConjugateMismatch),
        "lattice-check-conjugate-s": (lambda: check_conjugate(2.0, _NAN), ConjugateMismatch),
        "lattice-lp-norm-p": (lambda: lp_norm(w, _NAN), ValueError),
        "morrey-vector-norm-p1": (lambda: vector_morrey_norm(w, w, 2.0, _NAN, 2.0, fam), ExponentOrder),
        "morrey-vector-norm-p2": (lambda: vector_morrey_norm(w, w, 2.0, 2.0, _NAN, fam), ExponentOrder),
        "sparse-cz-decompose-a": (lambda: cz_decompose(w, w, 2.0, 2.0, q0, grid, a=_NAN), ValueError),
        "geometry-cube-side": (lambda: Cube((0.0,), _NAN), ValueError),
    }


@pytest.mark.parametrize("site", list(_nan_sites()))
def test_a_nan_exponent_is_out_of_range(site):
    call, error = _nan_sites()[site]
    with pytest.raises(error):
        call()


# every maximal operator on data of GridSpec(1, 4.0, 64), over a family of another spec
_SWEPT_ON_ANOTHER_FAMILY = {
    "maximal": lambda f, fam: maximal(f, fam),
    "frac-maximal": lambda f, fam: frac_maximal(f, 0.5, fam),
    "p-maximal": lambda f, fam: p_maximal(f, 2.0, fam),
    "multi-maximal": lambda f, fam: multi_maximal(f, f, 0.5, 1.0, 1.0, fam),
    "weighted-bilinear-maximal": lambda f, fam: weighted_bilinear_maximal(f, f, f, f, 0.5, 2.0, 2.0, 2.0, fam),
}


@pytest.mark.parametrize("other", [GridSpec(1, 4.0, 32), GridSpec(2, 2.0, 8)], ids=str)
@pytest.mark.parametrize("name", list(_SWEPT_ON_ANOTHER_FAMILY))
def test_a_family_on_another_spec_is_a_spec_mismatch(name, other):
    # before the check, a coarser 1D family or any 2D one raised a bare numpy ValueError
    spec = GridSpec(1, 4.0, 64)
    f = GridFunction(spec, np.random.default_rng(8).uniform(0.5, 2.0, 64))
    with pytest.raises(SpecMismatch) as err:
        _SWEPT_ON_ANOTHER_FAMILY[name](f, default_family(other))
    assert str(spec) in str(err.value) and str(other) in str(err.value)
    assert _SWEPT_ON_ANOTHER_FAMILY[name](f, default_family(spec)).spec == spec
