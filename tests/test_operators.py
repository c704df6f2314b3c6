"""Operator oracles: closed-form kernel integrals and exhaustive cube sweeps."""

import math

import numpy as np
import pytest

from bifrac import (
    AlphaOutOfRange,
    Cube,
    DyadicGrid,
    GridFunction,
    GridSpec,
    POutOfRange,
    SpecMismatch,
    all_intervals,
    bi_frac,
    bi_frac_at,
    frac_int,
    frac_int_at,
    frac_maximal,
    kernel_table,
    local_global_split,
    maximal,
    multi_frac_int,
    multi_frac_int_at,
    multi_maximal,
    p_maximal,
    sparse_bound,
    weighted_bilinear_maximal,
)


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
        assert table.weight(1) == pytest.approx(expect, rel=1e-14)

    def test_origin_cell_closed_form(self):
        spec = GridSpec(1, 1.0, 32)
        h = spec.h
        table = kernel_table(spec, 0.5)
        assert table.weight(0) == pytest.approx(4.0 * math.sqrt(0.5 * h), rel=1e-14)

    def test_gauss_table_is_leggauss(self):
        from bifrac import operators

        nodes, weights = np.polynomial.legendre.leggauss(48)
        assert np.array_equal(operators._GAUSS_NODES, nodes)
        assert np.array_equal(operators._GAUSS_WEIGHTS, weights)

    def test_alpha_near_one_degenerates_to_lebesgue(self):
        # as alpha -> 1 each cell mass approaches the cell width h
        spec = GridSpec(1, 1.0, 32)
        table = kernel_table(spec, 1.0 - 1e-9)
        assert table.weight(3) == pytest.approx(spec.h, rel=1e-6)

    def test_symmetry(self, spec32):
        table = kernel_table(spec32, 0.7)
        for d in range(1, 31):
            assert table.weight(d) == table.weight(-d)

    def test_2d_masses_positive_and_symmetric(self):
        spec = GridSpec(2, 1.0, 8)
        table = kernel_table(spec, 1.3)
        assert np.all(table.weights > 0)
        assert table.weight((2, 3)) == table.weight((-2, 3))
        assert table.weight((2, 3)) == table.weight((3, 2))

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
        shifted = bi_frac(f.shifted((5,)), g.shifted((5,)), 0.5)
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


class TestMultiFracInt:
    def test_zero(self, spec32):
        zero = GridFunction.constant(spec32, 0.0)
        one = GridFunction.constant(spec32, 1.0)
        assert np.all(multi_frac_int(zero, one, 1.0).samples == 0.0)

    def test_alpha_range_wider(self, spec32):
        one = GridFunction.constant(spec32, 1.0)
        multi_frac_int_at(one, one, 1.5, (0.0,))  # alpha in (n, 2n) allowed
        with pytest.raises(AlphaOutOfRange):
            multi_frac_int_at(one, one, 2.0, (0.0,))

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
        local, glob = local_global_split(f, f, 0.5, q0)
        sb = sparse_bound(f, f, 0.5, 2.0, 2.0, q0, DyadicGrid((0.0,)))
        full = bi_frac(f, f, 0.5)
        assert np.allclose(local.samples + glob.samples, full.samples, rtol=1e-12)
        cells = slice(32, 64)
        ratio = local.samples[cells] / np.maximum(sb.samples[cells], 1e-300)
        assert np.max(ratio) < 4.0  # see harness calibration for the real bound


class TestOperatorErrors:
    def test_weighted_maximal_rejects_zero_weight(self, osc_pair):
        spec, f, g = osc_pair
        from bifrac import NonPositiveWeight

        bad = GridFunction.constant(spec, 0.0)
        with pytest.raises(NonPositiveWeight):
            weighted_bilinear_maximal(f, g, bad, bad, 0.3, 2.0, 2.0, 2.0)

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
        from bifrac.lattice import box_power_integral

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
                if not Q.contains_point(x):
                    continue
                a1 = (box_power_integral(f, Q.corner, Q.side, r1) / Q.measure) ** (1 / r1)
                a2 = (box_power_integral(g, Q.corner, Q.side, r2) / Q.measure) ** (1 / r2)
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
