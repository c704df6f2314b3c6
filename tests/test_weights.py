"""Weight constants against exhaustive enumeration and invariances."""

import math

import numpy as np
import pytest
from conftest import enumerated_pair_values
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    Cube,
    EmptyCubeFamily,
    GridFunction,
    GridSpec,
    NonPositiveWeight,
    POutOfRange,
    SpecMismatch,
    WeightVector,
    all_intervals,
    ap_constant,
    apq_constant,
    default_family,
    family_from_cubes,
    iida_constant,
    multiple_apq_constant,
    nested_pairs,
    reverse_holder_probe,
    two_weight_constant,
)
from bifrac.weights import _family_power_averages, conjugate, iida_pair_value


def brute_interval_values(w_samples, h, i, j, expo):
    total = np.sum(np.power(w_samples[i:j], expo)) * h
    return total / ((j - i) * h)


def step_weight(spec):
    arr = np.where(spec.midpoints() < 0, 2.0, 1.0)
    return GridFunction(spec, arr)


class TestApConstant:
    def test_unit_weight(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        for p in (1.0, 1.5, 2.0, 4.0):
            rep = ap_constant(one, p, intervals32)
            assert rep.value == 1.0
            assert rep.family_size == intervals32.size

    def test_two_level_step(self, spec32, intervals32):
        w = step_weight(spec32)
        rep = ap_constant(w, 2.0, intervals32)
        # exhaustive check
        best = 0.0
        h = spec32.h
        for i in range(32):
            for j in range(i + 1, 33):
                a1 = brute_interval_values(w.samples, h, i, j, 1.0)
                a2 = brute_interval_values(w.samples, h, i, j, -1.0)
                best = max(best, a1 * a2)
        assert rep.value == pytest.approx(best, rel=1e-12)
        assert rep.value == pytest.approx(9.0 / 8.0, rel=1e-12)
        assert rep.witness == Cube((-1.0,), 2.0)

    def test_p_one_branch(self, spec32, intervals32):
        w = step_weight(spec32)
        rep = ap_constant(w, 1.0, intervals32)
        # exhaustive sup of avg / min
        best = 0.0
        h = spec32.h
        for i in range(32):
            for j in range(i + 1, 33):
                avg = brute_interval_values(w.samples, h, i, j, 1.0)
                best = max(best, avg / np.min(w.samples[i:j]))
        assert rep.value == pytest.approx(best, rel=1e-12)

    def test_scale_invariance(self, spec32, intervals32, rng):
        w = GridFunction(spec32, rng.uniform(0.3, 3.0, 32))
        a = ap_constant(w, 2.5, intervals32).value
        b = ap_constant(w * 17.0, 2.5, intervals32).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_power_weight_refinement_stability(self):
        # |x|^(1/2) lies inside the p=2 class: constants drift < 5% as N doubles
        vals = []
        for n in (64, 128, 256):
            spec = GridSpec(1, 1.0, n)
            w = GridFunction(
                spec, np.maximum(np.abs(spec.midpoints()) ** 0.5, 1e-8)
            )
            vals.append(ap_constant(w, 2.0, all_intervals(spec)).value)
        assert abs(vals[1] - vals[0]) / vals[0] < 0.05
        assert abs(vals[2] - vals[1]) / vals[1] < 0.05

    def test_rejects_negative(self, spec32, intervals32):
        arr = np.ones(32)
        arr[4] = -0.5
        with pytest.raises(NonPositiveWeight):
            ap_constant(GridFunction(spec32, arr), 2.0, intervals32)

    def test_p_below_one(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        with pytest.raises(POutOfRange):
            ap_constant(one, 0.8, intervals32)


class TestApqConstant:
    def test_unit(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        assert apq_constant(one, 2.0, 3.0, intervals32).value == 1.0

    def test_constant_scale_cancels(self, spec32, intervals32):
        c = GridFunction.constant(spec32, 5.0)
        assert apq_constant(c, 2.0, 3.0, intervals32).value == pytest.approx(1.0, rel=1e-12)

    def test_step_matches_enumeration(self, spec32, intervals32):
        w = step_weight(spec32)
        p, q = 2.0, 3.0
        rep = apq_constant(w, p, q, intervals32)
        pp = conjugate(p)
        best = 0.0
        h = spec32.h
        for i in range(32):
            for j in range(i + 1, 33):
                lead = brute_interval_values(w.samples, h, i, j, q) ** (1.0 / q)
                dual = brute_interval_values(w.samples, h, i, j, -pp) ** (1.0 / pp)
                best = max(best, lead * dual)
        assert rep.value == pytest.approx(best, rel=1e-12)

    def test_range_check(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        with pytest.raises(POutOfRange):
            apq_constant(one, 3.0, 2.0, intervals32)


class TestMultipleApq:
    def test_units(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        wv = WeightVector(one, one)
        assert multiple_apq_constant(wv, 2.0, 2.0, 3.0, intervals32).value == 1.0

    def test_reciprocal_pair(self, spec32, intervals32):
        c = GridFunction.constant(spec32, 3.0)
        inv = GridFunction.constant(spec32, 1.0 / 3.0)
        wv = WeightVector(c, inv)
        assert multiple_apq_constant(wv, 2.0, 2.0, 3.0, intervals32).value == pytest.approx(
            1.0, rel=1e-12
        )

    def test_joint_rescale_invariance(self, spec32, intervals32, rng):
        w1 = GridFunction(spec32, rng.uniform(0.3, 2.0, 32))
        w2 = GridFunction(spec32, rng.uniform(0.3, 2.0, 32))
        base = multiple_apq_constant(WeightVector(w1, w2), 2.0, 3.0, 2.5, intervals32).value
        c = 7.3
        scaled = multiple_apq_constant(
            WeightVector(w1 * c, w2 * (1.0 / c)), 2.0, 3.0, 2.5, intervals32
        ).value
        assert base == pytest.approx(scaled, rel=1e-12)

    def test_random_matches_enumeration(self, spec32, intervals32, rng):
        w1 = GridFunction(spec32, rng.uniform(0.3, 2.0, 32))
        w2 = GridFunction(spec32, rng.uniform(0.3, 2.0, 32))
        p1, p2, q = 2.0, 3.0, 2.0
        rep = multiple_apq_constant(WeightVector(w1, w2), p1, p2, q, intervals32)
        nu = w1.samples * w2.samples
        h = spec32.h
        best = 0.0
        for i in range(32):
            for j in range(i + 1, 33):
                lead = brute_interval_values(nu, h, i, j, q) ** (1.0 / q)
                d1 = brute_interval_values(w1.samples, h, i, j, -conjugate(p1)) ** (
                    1.0 / conjugate(p1)
                )
                d2 = brute_interval_values(w2.samples, h, i, j, -conjugate(p2)) ** (
                    1.0 / conjugate(p2)
                )
                best = max(best, lead * d1 * d2)
        assert rep.value == pytest.approx(best, rel=1e-12)

    def test_p_equal_one_uses_minimum(self, spec32, intervals32):
        w1 = step_weight(spec32)
        one = GridFunction.constant(spec32, 1.0)
        rep = multiple_apq_constant(WeightVector(w1, one), 1.0, 2.0, 2.0, intervals32)
        h = spec32.h
        best = 0.0
        for i in range(32):
            for j in range(i + 1, 33):
                lead = brute_interval_values(w1.samples, h, i, j, 2.0) ** 0.5
                best = max(best, lead / np.min(w1.samples[i:j]))
        assert rep.value == pytest.approx(best, rel=1e-12)


class TestIidaConstant:
    def test_units_attained_at_equal_pair(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        pairs = nested_pairs(intervals32)
        rep = iida_constant(WeightVector(one, one), 4.0, 2.0, 2.0, 2.0, pairs)
        assert rep.value == 1.0
        inner, outer = rep.witness
        assert inner == outer

    def test_exponent_translation_identity(self):
        # substituted component exponents reproduce the direct display
        for (r, p1) in ((2.0, 4.0), (2.5, 6.0), (1.5, 2.0)):
            s = r / (r - 1.0)
            u = s * p1 / (s + p1)
            up = conjugate(u)
            assert up == pytest.approx(p1 * r / (p1 - r), rel=1e-12)
            assert 1.0 / up == pytest.approx(1.0 / r - 1.0 / p1, rel=1e-12)

    def test_step_matches_pair_enumeration(self, spec32, intervals32, rng):
        w1 = GridFunction(spec32, rng.uniform(0.4, 2.0, 32))
        w2 = GridFunction(spec32, rng.uniform(0.4, 2.0, 32))
        q0, q, p1, p2 = 4.0, 2.0, 2.0, 3.0
        pairs = nested_pairs(intervals32)
        rep = iida_constant(WeightVector(w1, w2), q0, q, p1, p2, pairs)
        nu = w1.samples * w2.samples
        h = spec32.h
        cp1, cp2 = conjugate(p1), conjugate(p2)
        best = 0.0
        for io in range(32):
            for jo in range(io + 1, 33):
                d1 = brute_interval_values(w1.samples, h, io, jo, -cp1) ** (1.0 / cp1)
                d2 = brute_interval_values(w2.samples, h, io, jo, -cp2) ** (1.0 / cp2)
                for ii in range(io, jo):
                    for ji in range(ii + 1, jo + 1):
                        ratio = ((ji - ii) / (jo - io)) ** (1.0 / q0)
                        lead = brute_interval_values(nu, h, ii, ji, q) ** (1.0 / q)
                        best = max(best, ratio * lead * d1 * d2)
        assert rep.value == pytest.approx(best, rel=1e-12)

    def test_witness_reproduces_value(self, spec32, intervals32, rng):
        from bifrac.weights import iida_pair_value

        w1 = GridFunction(spec32, rng.uniform(0.4, 2.0, 32))
        w2 = GridFunction(spec32, rng.uniform(0.4, 2.0, 32))
        wv = WeightVector(w1, w2)
        pairs = nested_pairs(intervals32)
        rep = iida_constant(wv, 4.0, 2.0, 2.0, 2.0, pairs)
        inner, outer = rep.witness
        again = iida_pair_value(wv, 4.0, 2.0, 2.0, 2.0, inner, outer)
        assert again == pytest.approx(rep.value, rel=1e-12)

    def test_reduces_to_single_cube_on_diagonal(self, spec32, intervals32, rng):
        # equal-width intervals nest only in themselves: Q = Q', ratio factor 1
        w1 = GridFunction(spec32, rng.uniform(0.4, 2.0, 32))
        w2 = GridFunction(spec32, rng.uniform(0.4, 2.0, 32))
        wv = WeightVector(w1, w2)
        width4 = [Q for Q in intervals32.cubes if Q.side == pytest.approx(4 * spec32.h)]
        fam = family_from_cubes(spec32, width4)
        diag = nested_pairs(fam)
        assert diag.size == fam.size
        got = iida_constant(wv, 1e18, 2.0, 2.0, 3.0, diag).value
        want = multiple_apq_constant(wv, 2.0, 3.0, 2.0, fam).value
        assert got == pytest.approx(want, rel=1e-9)


class TestTwoWeightConstant:
    def test_all_units(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        pairs = nested_pairs(intervals32)
        rep = two_weight_constant(one, WeightVector(one, one), 4.0, 2.0, 2.0, 2.0, pairs)
        assert rep.value == 1.0

    def test_r0_factor_picks_largest_outer(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        pairs = nested_pairs(intervals32)
        r0 = 2.0
        rep = two_weight_constant(
            one, WeightVector(one, one), 4.0, 2.0, 2.0, 2.0, pairs, r0=r0
        )
        biggest = max(Q.measure for Q in intervals32.cubes)
        assert rep.value == pytest.approx(biggest ** (1.0 / r0), rel=1e-12)
        inner, outer = rep.witness
        assert inner == outer
        assert outer.measure == pytest.approx(biggest)

    def test_overflowed_prefix_sums_keep_the_lead_average_finite(self):
        # v^2 is finite, but its prefix sums overflow from cell 3 on; the
        # average over [4, 5) is its own cell's v^2, not inf - inf
        spec = GridSpec(1, 1.0, 8)
        v = np.ones(8)
        v[2:6] = 1.3e154
        one = GridFunction.constant(spec, 1.0)
        fam = family_from_cubes(spec, [spec.cell_cube((0,)), spec.cell_cube((4,))])
        rep = two_weight_constant(
            GridFunction(spec, v), WeightVector(one, one), 4.0, 2.0, 2.0, 2.0, nested_pairs(fam)
        )
        assert rep.value == (1.3e154 ** 2) ** 0.5
        assert rep.witness == (spec.cell_cube((4,)), spec.cell_cube((4,)))

    def test_v_equal_product_reduces_to_iida(self, spec32, intervals32, rng):
        w1 = GridFunction(spec32, rng.uniform(0.4, 2.0, 32))
        w2 = GridFunction(spec32, rng.uniform(0.4, 2.0, 32))
        nu = GridFunction(spec32, w1.samples * w2.samples)
        wv = WeightVector(w1, w2)
        pairs = nested_pairs(intervals32)
        a = two_weight_constant(nu, wv, 4.0, 2.0, 2.0, 2.0, pairs).value
        b = iida_constant(wv, 4.0, 2.0, 2.0, 2.0, pairs).value
        assert a == pytest.approx(b, rel=1e-12)


def _pair_case(data):
    """A family (default or a random subset with repeats), weights and exponents."""
    dim = data.draw(st.sampled_from((1, 2)))
    n = data.draw(st.sampled_from((1, 2, 4, 8, 16, 32) if dim == 1 else (1, 2, 4, 8, 16)))
    spec = GridSpec(dim, data.draw(st.sampled_from((1.0, 4.0))), n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    family = default_family(spec)
    if data.draw(st.booleans()):
        keep = rng.integers(0, family.size, rng.integers(0, family.size + 1))
        family = family_from_cubes(spec, [family.cube(int(k)) for k in keep], name="subset")
    w1, w2, v = (rng.uniform(0.3, 3.0, spec.shape) for _ in range(3))
    special = data.draw(st.sampled_from(("none", "zero-v", "tiny-w1")))
    cell = tuple(rng.integers(0, n, dim))
    if special == "zero-v":
        v[cell] = 0.0
    elif special == "tiny-w1":
        w1[cell] = 1e-300  # w1^{-p1'} overflows: +inf on every cube holding the cell
    wv = WeightVector(GridFunction(spec, w1), GridFunction(spec, w2))
    exps = tuple(
        data.draw(st.sampled_from(xs))
        for xs in ((0.7, 2.0, 4.0), (0.5, 2.0, 3.0), (1.5, 2.0, 4.0), (1.25, 3.0))
    )
    return family, wv, GridFunction(spec, v), exps, special


def _members(family, C):
    return np.flatnonzero(np.all(family.corners == C.corner, axis=1) & (family.sides == C.side))


@settings(max_examples=80)
@given(st.data())
def test_pair_constants_match_enumeration(data):
    # the containment recursion against the listed pairs it replaces
    family, wv, v, (q0, q, p1, p2), _ = _pair_case(data)
    kind = data.draw(st.sampled_from(("iida", "two-weight")))
    r0 = data.draw(st.sampled_from((None, 1.5))) if kind == "two-weight" else None
    lead = wv.nu if kind == "iida" else v
    inner, outer, vals = enumerated_pair_values(lead, wv, q0, q, p1, p2, family, r0)
    pairs = nested_pairs(family)
    assert pairs.size == len(inner)
    if kind == "iida":
        constant = lambda: iida_constant(wv, q0, q, p1, p2, pairs)  # noqa: E731
    else:
        constant = lambda: two_weight_constant(v, wv, q0, q, p1, p2, pairs, r0)  # noqa: E731
    if pairs.size == 0:
        with pytest.raises(EmptyCubeFamily):
            constant()
        return
    rep = constant()
    want = float(np.max(vals))
    if math.isinf(want):
        assert rep.value == want
    else:
        assert rep.value == pytest.approx(want, rel=1e-12)
    # the witness is a listed (so nested) pair whose listed value is the constant
    Q, K = rep.witness
    at = np.isin(inner, _members(family, Q)) & np.isin(outer, _members(family, K))
    assert at.any()
    assert np.all((vals[at] == rep.value) | np.isclose(vals[at], rep.value, rtol=1e-12, atol=0))
    if kind == "iida":
        again = iida_pair_value(wv, q0, q, p1, p2, Q, K)
        if math.isinf(rep.value):
            assert again == rep.value
        else:
            assert again == pytest.approx(rep.value, rel=1e-12)


@pytest.mark.parametrize("dim", (1, 2))
def test_power_averages_survive_overflowed_prefix_sums(dim):
    # v^2 is finite per cell but its running sums overflow: every aligned cube
    # reads its own slice sum (+inf only where that sum overflows), not inf - inf
    spec = GridSpec(dim, 4.0, 8)
    v = np.ones(spec.shape)
    v[(slice(2, 6),) * dim] = 1.3e154
    fam = default_family(spec)
    pw = v**2.0
    got = _family_power_averages(GridFunction(spec, v), 2.0, fam)
    with np.errstate(over="ignore"):
        want = [
            np.sum(pw[tuple(slice(a, b) for a, b in zip(lo, hi))]) * spec.h**dim / fam.measures[k]
            for k, (lo, hi) in enumerate(zip(fam.lo, fam.hi))
            if fam.aligned[k]
        ]
    assert np.array_equal(got[fam.aligned], want)
    cell = np.flatnonzero(np.all(fam.lo == 4, axis=1) & np.all(fam.hi == 5, axis=1))
    assert got[cell].tolist() == [pw[(4,) * dim]]


def test_shifted_power_averages_stay_finite_away_from_an_infinite_cell(spec2d):
    # w^-1 is +inf on one cell: the shifted cubes that overlap it read +inf,
    # and every other one reads the average it has with the cell set to 1
    # (193 of the 199 shifted cubes read nan when the cell leaked into them)
    fam = default_family(spec2d)
    k = fam.shifted
    w = np.ones(spec2d.shape)
    w[7, 7] = 0.0
    got = _family_power_averages(GridFunction(spec2d, w, nonnegative=True), -1.0, fam)[k]
    lo, hi = fam.corners[k], fam.corners[k] + fam.sides[k, None]
    cell_lo = -spec2d.half_width + 7 * spec2d.h
    touch = np.all(np.minimum(hi, cell_lo + spec2d.h) - np.maximum(lo, cell_lo) > 0.0, axis=1)
    assert (len(got), touch.sum()) == (199, 6)
    assert np.all(got[touch] == np.inf)
    w[7, 7] = 1.0
    want = _family_power_averages(GridFunction(spec2d, w, nonnegative=True), -1.0, fam)[k]
    assert np.array_equal(got[~touch], want[~touch])


def test_iida_pair_value_ignores_an_overflow_outside_the_pair():
    # w1^{-p1'} overflows on cell 1 only
    spec = GridSpec(1, 4.0, 8)
    w1 = np.ones(8)
    w1[1] = 1e-300
    wv = WeightVector(GridFunction(spec, w1), GridFunction.constant(spec, 1.0))
    far, near, outer = spec.cell_cube((5,)), spec.cell_cube((1,)), Cube((-4.0,), 4.0)
    assert iida_pair_value(wv, 4.0, 3.0, 1.5, 2.0, far, far) == 1.0
    # a pair whose outer cube holds the cell reads +inf, as iida_constant does
    assert iida_pair_value(wv, 4.0, 3.0, 1.5, 2.0, spec.cell_cube((0,)), outer) == math.inf
    assert iida_pair_value(wv, 4.0, 3.0, 1.5, 2.0, near, near) == math.inf
    pairs = nested_pairs(family_from_cubes(spec, [spec.cell_cube((0,)), outer]))
    assert iida_constant(wv, 4.0, 3.0, 1.5, 2.0, pairs).value == math.inf


def test_weight_vector_spec_mismatch(spec32):
    other = GridFunction.constant(GridSpec(1, 2.0, 32), 1.0)
    with pytest.raises(SpecMismatch):
        WeightVector(GridFunction.constant(spec32, 1.0), other)


class TestReverseHolder:
    def test_constant_weight(self, spec32, intervals32):
        c = GridFunction.constant(spec32, 4.2)
        for eps in (0.25, 1.0, 3.0):
            assert reverse_holder_probe(c, eps, intervals32) == pytest.approx(1.0)

    def test_at_least_one(self, spec32, intervals32, rng):
        w = GridFunction(spec32, rng.uniform(0.2, 5.0, 32))
        assert reverse_holder_probe(w, 0.5, intervals32) >= 1.0 - 1e-15

    def test_step_matches_enumeration(self, spec32, intervals32):
        w = step_weight(spec32)
        got = reverse_holder_probe(w, 1.0, intervals32)
        h = spec32.h
        best = 0.0
        for i in range(32):
            for j in range(i + 1, 33):
                hi = brute_interval_values(w.samples, h, i, j, 2.0) ** 0.5
                lo = brute_interval_values(w.samples, h, i, j, 1.0)
                best = max(best, hi / lo)
        assert got == pytest.approx(best, rel=1e-12)


class TestFamilyMonotonicity:
    def test_bigger_family_never_smaller(self, spec32, rng):
        from bifrac.families import family_from_cubes

        w = GridFunction(spec32, rng.uniform(0.3, 2.0, 32))
        full = all_intervals(spec32)
        half = family_from_cubes(spec32, full.cubes[::2], name="half")
        assert (
            ap_constant(w, 2.0, half).value
            <= ap_constant(w, 2.0, full).value + 1e-15
        )

    def test_zero_weight_gives_inf_sentinel(self, spec32, intervals32):
        arr = np.ones(32)
        arr[5] = 0.0
        w = GridFunction(spec32, arr)
        rep = ap_constant(w, 2.0, intervals32)
        assert math.isinf(rep.value)


def test_empty_family_raises(spec32):
    from bifrac import EmptyCubeFamily
    from bifrac.families import family_from_cubes

    one = GridFunction.constant(spec32, 1.0)
    with pytest.raises(EmptyCubeFamily):
        ap_constant(one, 2.0, family_from_cubes(spec32, []))
