"""Weight constants against exhaustive enumeration and invariances."""

import math

import numpy as np
import pytest
from conftest import (
    _cube_power_integral,
    ap_constant_oracle,
    apq_constant_oracle,
    cell_slices_oracle,
    enumerated_pair_values,
    family_from_cubes,
    family_power_averages_oracle,
    fsum_bound,
    iida_pair_value,
    morrey_values_oracle,
    multiple_apq_constant_oracle,
    overlap_integrals_oracle,
    pair_constant_oracle,
    report_oracle,
    reverse_holder_probe_oracle,
    vector_morrey_values_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    AverageOverflow,
    Cube,
    EmptyCubeFamily,
    GridFunction,
    GridSpec,
    MorreyParams,
    NonPositiveWeight,
    POutOfRange,
    SpecMismatch,
    WeightVector,
    all_intervals,
    ap_constant,
    apq_constant,
    default_family,
    iida_constant,
    morrey_norm,
    morrey_norm_witness,
    multiple_apq_constant,
    nested_pairs,
    power_scaling_check,
    reverse_holder_probe,
    two_weight_constant,
    vector_morrey_norm,
)
from bifrac import families, lattice
from bifrac.families import CubeFamily, _shifted_grid_cubes
from bifrac.weights import ConstantReport, _family_power_averages, conjugate


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
        first, fifth = Cube((-1.0,), 0.25), Cube((0.0,), 0.25)  # cells 0 and 4
        fam = family_from_cubes(spec, [first, fifth])
        rep = two_weight_constant(
            GridFunction(spec, v), WeightVector(one, one), 4.0, 2.0, 2.0, 2.0, nested_pairs(fam)
        )
        assert rep.value == (1.3e154 ** 2) ** 0.5
        assert rep.witness == (fifth, fifth)

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


def _assert_same_bits(got, want):
    """Two reports, or two floats, equal bit for bit."""
    if isinstance(want, ConstantReport):
        assert (got.witness, got.family_size) == (want.witness, want.family_size)
        got, want = got.value, want.value
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


@settings(max_examples=60)
@given(st.data())
def test_every_constant_and_norm_equals_its_formula_bit_for_bit(data):
    # each of the ten entry points against the formula it was before the
    # shared per-cube product (tests/conftest.py), on the 1D and 2D default
    # families; a nan there (0 * inf) reads +inf, the contract of the shared max
    dim = data.draw(st.sampled_from((1, 2)))
    spec = GridSpec(1, 4.0, 16) if dim == 1 else GridSpec(2, 2.0, 8)
    family = default_family(spec)
    pairs = nested_pairs(family)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w, w1, w2, v = (rng.uniform(0.3, 3.0, spec.shape) for _ in range(4))
    f1, f2 = rng.normal(size=spec.shape), rng.normal(size=spec.shape)
    special = data.draw(st.sampled_from(("none", "zero-cells", "zero-block", "overflow")))
    # the last half per axis: cubes that reach into it from outside read +inf
    # and come before those inside it (nan), so the first +inf is the witness
    block = (slice(spec.cells_per_axis // 2, None),) * dim
    if special == "zero-cells":
        # +inf sentinels: a zero cell raised to a negative power, and w1^{-p1'} past the float range
        for arr, tiny in ((w, 0.0), (v, 0.0), (w1, 1e-300)):
            arr.reshape(-1)[rng.integers(0, arr.size, 2)] = tiny
    elif special == "zero-block":
        # weights vanishing on whole cubes where a dual average is +inf, and
        # f2^2 past the float range where f1 vanishes: 0 * inf on those cubes
        w[block], v[block], w1[block], f1[block], f2[block] = 0.0, 0.0, 1e-300, 0.0, 1e200
    elif special == "overflow":
        w.reshape(-1)[:2] = 1e308  # avg_Q w past the float range: inf / inf in the probe
    w, v, f1, f2 = (GridFunction(spec, a) for a in (w, v, f1, f2))
    wv = WeightVector(GridFunction(spec, w1), GridFunction(spec, w2))
    if special == "zero-block":
        assert np.isnan(vector_morrey_values_oracle(f1, f2, 4.0, 2.0, 2.0, family)).any()

    p = data.draw(st.sampled_from((1.0, 1.5, 3.0)))
    _assert_same_bits(ap_constant(w, p, family), ap_constant_oracle(w, p, family))
    p, q = data.draw(st.sampled_from(((1.5, 2.5), (2.0, 4.0))))
    _assert_same_bits(apq_constant(w, p, q, family), apq_constant_oracle(w, p, q, family))
    p1, p2 = data.draw(st.sampled_from((1.0, 1.5, 3.0))), data.draw(st.sampled_from((1.0, 2.0)))
    q = data.draw(st.sampled_from((0.5, 1.0, 2.0)))
    want = multiple_apq_constant_oracle(wv, p1, p2, q, family)
    _assert_same_bits(multiple_apq_constant(wv, p1, p2, q, family), want)
    q0, q = data.draw(st.sampled_from((0.7, 4.0))), data.draw(st.sampled_from((0.5, 2.0)))
    p1, p2 = data.draw(st.sampled_from((1.25, 3.0))), data.draw(st.sampled_from((1.5, 2.0)))
    r0 = data.draw(st.sampled_from((None, 1.5)))
    want = pair_constant_oracle(wv.nu, wv, q0, q, p1, p2, pairs)
    _assert_same_bits(iida_constant(wv, q0, q, p1, p2, pairs), want)
    want = pair_constant_oracle(v, wv, q0, q, p1, p2, pairs, r0)
    _assert_same_bits(two_weight_constant(v, wv, q0, q, p1, p2, pairs, r0), want)
    eps = data.draw(st.sampled_from((0.5, 2.0)))
    _assert_same_bits(reverse_holder_probe(w, eps, family), reverse_holder_probe_oracle(w, eps, family))

    p0, q = data.draw(st.sampled_from(((2.0, 1.0), (4.0, 2.0), (3.0, 3.0))))
    for f in (f1, f2):
        want = report_oracle(morrey_values_oracle(f, p0, q, family), family)
        value, cube = morrey_norm_witness(f, MorreyParams(p0, q), family)
        _assert_same_bits(ConstantReport(value, cube, family.size), want)
        _assert_same_bits(morrey_norm(f, MorreyParams(p0, q), family), want.value)
    p1, p2 = data.draw(st.sampled_from((1.0, 2.0))), data.draw(st.sampled_from((2.0, 3.0)))
    want = report_oracle(vector_morrey_values_oracle(f1, f2, 4.0, p1, p2, family), family)
    _assert_same_bits(vector_morrey_norm(f1, f2, 4.0, p1, p2, family), want.value)
    lhs, rhs = power_scaling_check(f1, 4.0, 3.0, 1.5, family)
    scaled = report_oracle(morrey_values_oracle(f1.abs_pow(1.5), 4.0 / 1.5, 2.0, family), family)
    _assert_same_bits(lhs, scaled.value ** (1.0 / 1.5))
    _assert_same_bits(rhs, report_oracle(morrey_values_oracle(f1, 4.0, 3.0, family), family).value)


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


def _family_case(data):
    """A spec and a family (the default one, or a subset of a pool of aligned
    and shifted cubes: mixed, all aligned or all shifted), and a generator."""
    dim = data.draw(st.sampled_from((1, 2)))
    n = data.draw(st.sampled_from((1, 2, 4, 8, 16) if dim == 1 else (1, 2, 4, 8)))
    # a cell side that is not a power of two makes scaling by the cell volume round
    spec = GridSpec(dim, data.draw(st.sampled_from((1.0, 3.0))), n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    family = default_family(spec)
    kind = data.draw(st.sampled_from(("default", "mixed", "aligned", "shifted")))
    if kind != "default":
        corners, sides = _shifted_grid_cubes(spec)
        # plus four random cubes inside the box
        side = rng.uniform(0.05, 1.0, 4) * 2.0 * spec.half_width
        corner = -spec.half_width + rng.uniform(0.0, 1.0, (4, dim)) * (2.0 * spec.half_width - side[:, None])
        corners, sides = np.vstack((corners, corner)), np.append(sides, side)
        pool = family_from_cubes(spec, list(family.cubes) + [Cube(tuple(c), s) for c, s in zip(corners, sides)])
        members = {"mixed": np.arange(pool.size), "aligned": np.flatnonzero(pool.aligned)}.get(kind, pool.shifted)
        keep = rng.choice(members, rng.integers(0, len(members) + 1))
        family = family_from_cubes(spec, [pool.cube(int(k)) for k in keep], name=kind)
    return spec, family, rng


_EXPONENTS = (-2.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0)


def _extreme_weight(rng, shape):
    """Uniform in [0.3, 3], with up to two exact zeros and up to two 1.3e154 cells."""
    w = rng.uniform(0.3, 3.0, shape).reshape(-1)
    w[rng.integers(0, w.size, rng.integers(0, 3))] = 0.0
    w[rng.integers(0, w.size, rng.integers(0, 3))] = 1.3e154
    return w.reshape(shape)


def _averages_case(data):
    """A _family_case family, an _extreme_weight, and an exponent."""
    spec, family, rng = _family_case(data)
    w = _extreme_weight(rng, spec.shape)
    return family, GridFunction(spec, w), data.draw(st.sampled_from(_EXPONENTS))


def _assert_within_fsum(got, want, spec):
    """got against overlap_integrals_oracle's fsum: +inf at the same cubes,
    no NaN, 0 exactly where the reference is 0, and otherwise within
    fsum_bound relative."""
    assert not np.isnan(got).any()
    assert np.array_equal(got == np.inf, want == np.inf)
    assert np.array_equal(got == 0.0, want == 0.0)
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= fsum_bound(spec) * want[finite])


def _split_weight(rng, shape):
    """1e8 on half the cells, 1e-8 on the rest: a difference of running sums
    loses the 1e-8 cells against the 1e8 ones."""
    return np.where(rng.permutation(np.arange(math.prod(shape)) % 2 == 0).reshape(shape), 1e8, 1e-8)


def _zeros_weight(rng, shape):
    """30% zero cells, uniform in [0.2, 5] elsewhere."""
    return np.where(rng.random(shape) < 0.3, 0.0, rng.uniform(0.2, 5.0, shape))


def _fsum_power_averages(pw, family):
    """Per cube, math.fsum of its cell terms over |Q|: an aligned cube's
    cells times the cell volume, a shifted cube's overlap terms
    (overlap_integrals_oracle); +inf where a cell is +inf or the sum leaves
    the float range.  Also, per cube, the scale its error is relative to:
    the average itself, but for a 1D aligned cube while the running sum of
    all cells is finite, a difference of running sums, the running sum up
    to its last cell over |Q|."""
    spec = family.spec
    voxel = spec.h**spec.dim
    want, scale = np.empty(family.size), np.empty(family.size)
    with np.errstate(over="ignore", invalid="ignore"):
        running = spec.dim == 1 and np.isfinite(np.cumsum(pw)[-1] * voxel)
    for k in np.flatnonzero(family.aligned):
        cells = pw[tuple(slice(a, b) for a, b in zip(family.lo[k], family.hi[k]))].reshape(-1).tolist()
        reach = pw[: family.hi[k, 0]].tolist() if running else cells
        for out, terms in ((want, cells), (scale, reach)):
            try:
                out[k] = math.fsum(terms) * voxel / family.measures[k]
            except OverflowError:
                out[k] = math.inf
    k = family.shifted
    want[k] = overlap_integrals_oracle(spec, pw, family.corners[k], family.sides[k]) / family.measures[k]
    scale[k] = want[k]
    return want, scale


@settings(max_examples=120)
@given(st.data())
def test_power_averages_are_within_the_fsum_bound(data):
    # every cube against math.fsum of its own cell terms, on uniform, 1e+-8
    # and 30%-zero weights and on the _averages_case weights: no NaN, +inf
    # exactly where the cube holds a +inf cell (a zero to a negative power)
    # or its sum overflows, exactly 0 on an all-zero cube, and otherwise
    # within fsum_bound.  A 2D aligned cube adds its own disjoint blocks, so
    # its error is relative to its own sum, as is a 1D aligned cube's when
    # the running sum of the cells is not finite.  Otherwise a 1D aligned
    # cube is a difference of running sums: its error is relative to the
    # running sum at its end, and a cube small against that may read 0
    # (ROADMAP item 6).
    spec, family, rng = _family_case(data)
    kind = data.draw(st.sampled_from(("uniform", "split", "zeros", "extreme")))
    if kind == "uniform":
        w = rng.uniform(0.3, 3.0, spec.shape)
    elif kind == "split":
        w = _split_weight(rng, spec.shape)
    elif kind == "zeros":
        w = _zeros_weight(rng, spec.shape)
    else:
        w = _extreme_weight(rng, spec.shape)
    expo = data.draw(st.sampled_from(_EXPONENTS))
    got = _family_power_averages(GridFunction(spec, w), expo, family)
    with np.errstate(divide="ignore", over="ignore"):
        pw = np.power(w, expo)
    want, scale = _fsum_power_averages(pw, family)
    assert not np.isnan(got).any()
    assert np.array_equal(got == np.inf, want == np.inf)
    assert np.all(got[want == 0.0] == 0.0)
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= fsum_bound(spec) * scale[finite])


@pytest.mark.parametrize("n", (8, 32))
def test_2d_aligned_averages_of_split_and_zero_weights(n):
    # the aligned cubes of the 2D default family: on the 1e+-8 weight within
    # 1e-15 relative of math.fsum, and on the 30%-zero weight exactly 0 on
    # every all-zero cube
    spec = GridSpec(2, 2.0, n)
    family = default_family(spec)
    rng = np.random.default_rng(n)
    k = family.aligned
    for expo in (1.0, -2.0):
        w = _split_weight(rng, spec.shape)
        got = _family_power_averages(GridFunction(spec, w), expo, family)[k]
        want = _fsum_power_averages(np.power(w, expo), family)[0][k]
        assert np.all(np.abs(got - want) <= 1e-15 * want)
    w = _zeros_weight(rng, spec.shape)
    got = _family_power_averages(GridFunction(spec, w), 1.0, family)[k]
    empty = _fsum_power_averages(w, family)[0][k] == 0.0
    assert empty.sum() > 0
    assert np.all(got[empty] == 0.0)


@pytest.mark.parametrize("expo", (-2.5, -1.0, -0.5))
def test_1d_averages_of_a_weight_with_zero_cells_are_within_each_cubes_own_bound(expo):
    # a zero cell to a negative power is +inf, so the running sum is not
    # finite: every cube of the 1D default family reads +inf exactly where it
    # holds a zero cell, and otherwise its own sum, within fsum_bound of
    # math.fsum relative to that sum (a difference of running sums of the
    # other cells was up to 16.8x past it)
    for n in (16, 64, 128):
        spec = GridSpec(1, 4.0, n)
        family = default_family(spec)
        for seed in range(4):
            w = _zeros_weight(np.random.default_rng(seed), spec.shape)
            got = _family_power_averages(GridFunction(spec, w, nonnegative=True), expo, family)
            with np.errstate(divide="ignore"):
                want = _fsum_power_averages(np.power(w, expo), family)[0]
            assert np.isinf(want).any()
            assert np.array_equal(got == np.inf, want == np.inf)
            finite = np.isfinite(want)
            assert np.all(np.abs(got[finite] - want[finite]) <= fsum_bound(spec) * want[finite])


@settings(max_examples=80)
@given(st.data())
def test_power_averages_equal_the_per_call_oracle(data):
    # the aligned cubes against the per-call form they replace, bit for bit;
    # the shifted cubes against a math.fsum of their cell terms
    family, w, expo = _averages_case(data)
    got = _family_power_averages(w, expo, family)
    want = family_power_averages_oracle(w, expo, family)
    assert np.array_equal(got[family.aligned], want[family.aligned], equal_nan=True)
    k = family.shifted
    _assert_within_fsum(got[k], want[k], w.spec)
    with np.errstate(divide="ignore", over="ignore"):
        pw = np.power(w.samples, expo)
    shifted = family.shifted_integrals(pw)
    assert np.array_equal(shifted, family.shifted_integrals(pw))
    want_shifted = overlap_integrals_oracle(w.spec, pw, family.corners[k], family.sides[k])
    _assert_within_fsum(shifted, want_shifted, w.spec)
    # a one-cube call may round differently from the batch (a one-row product
    # takes another BLAS kernel), but stays within the same bound
    one_by_one = [
        lattice.integrate_overlaps(pw, lattice.cell_overlaps(w.spec, family.corners[[j]], family.sides[[j]]))[0] for j in k
    ]
    _assert_within_fsum(np.array(one_by_one).reshape(-1), want_shifted, w.spec)


def test_shifted_integrals_whose_partial_sums_overflow_equal_the_fsum_reference():
    # cells near the float maximum and cells wider than 1: a product over
    # cells a cube does not reach overflows (inf * 0 = nan), and some cubes'
    # own integrals leave the float range while others stay finite
    spec = GridSpec(2, 3.0, 4)
    family = default_family(spec)
    rng = np.random.default_rng(1)
    huge = rng.random(spec.shape) < 0.5
    pw = np.where(huge, rng.uniform(0.3, 1.0, spec.shape) * 1.7e308, rng.uniform(0.0, 2.0, spec.shape))
    pw[0, 3] = np.inf
    k = family.shifted
    want = overlap_integrals_oracle(spec, pw, family.corners[k], family.sides[k])
    assert 0 < np.isinf(want).sum() < len(k)
    _assert_within_fsum(family.shifted_integrals(pw), want, spec)


def test_a_family_builds_its_cell_overlaps_once(monkeypatch):
    # the shifted cubes' overlap vectors are geometry: built on first use, then reused
    built = []

    def counted(*args):
        built.append(args)
        return lattice.cell_overlaps(*args)

    monkeypatch.setattr(families, "cell_overlaps", counted)
    rng = np.random.default_rng(10)
    for spec, builds in ((GridSpec(2, 2.0, 16), 1), (GridSpec(1, 2.0, 16), 0)):
        built.clear()
        family = default_family(spec)
        w = GridFunction(spec, rng.uniform(0.3, 3.0, spec.shape))
        for expo in np.linspace(-2.0, 3.0, 10):
            _family_power_averages(w, expo, family)
        assert len(built) == builds


@pytest.mark.parametrize("name", ("corners", "sides", "lo", "hi"))
def test_family_arrays_are_read_only(name):
    spec = GridSpec(2, 2.0, 4)
    mine = default_family(spec)
    arrays = {key: np.array(getattr(mine, key)) for key in ("corners", "sides", "lo", "hi")}
    family = CubeFamily(spec, **arrays)
    with pytest.raises(ValueError):
        getattr(family, name)[0] = 0
    # the caller's array is copied, not frozen
    arrays[name][0] = 99
    assert getattr(family, name)[0].tolist() == getattr(mine, name)[0].tolist()


def test_iida_pair_value_ignores_an_overflow_outside_the_pair():
    # w1^{-p1'} overflows on cell 1 only
    spec = GridSpec(1, 4.0, 8)
    w1 = np.ones(8)
    w1[1] = 1e-300
    wv = WeightVector(GridFunction(spec, w1), GridFunction.constant(spec, 1.0))
    # cells 5, 1 and 0, and the left half of the box
    far, near, first, outer = Cube((1.0,), 1.0), Cube((-3.0,), 1.0), Cube((-4.0,), 1.0), Cube((-4.0,), 4.0)
    assert iida_pair_value(wv, 4.0, 3.0, 1.5, 2.0, far, far) == 1.0
    # a pair whose outer cube holds the cell reads +inf, as iida_constant does
    assert iida_pair_value(wv, 4.0, 3.0, 1.5, 2.0, first, outer) == math.inf
    assert iida_pair_value(wv, 4.0, 3.0, 1.5, 2.0, near, near) == math.inf
    pairs = nested_pairs(family_from_cubes(spec, [first, outer]))
    assert iida_constant(wv, 4.0, 3.0, 1.5, 2.0, pairs).value == math.inf


def test_weight_vector_spec_mismatch(spec32):
    other = GridFunction.constant(GridSpec(1, 2.0, 32), 1.0)
    with pytest.raises(SpecMismatch):
        WeightVector(GridFunction.constant(spec32, 1.0), other)


@pytest.mark.parametrize("dim", [1, 2])
def test_weight_vector_product_past_the_float_range_is_named(dim):
    # 1e200 * 1e200 leaves the float range on one cell; 1e200 * 1e100 does not
    spec = GridSpec(dim, 1.0, 8)
    big = np.ones(spec.shape)
    big[(3,) * dim] = 1e200
    w = GridFunction(spec, big)
    with pytest.raises(AverageOverflow, match=r"product weight w1 \* w2"):
        WeightVector(w, w)
    fine = WeightVector(w, GridFunction(spec, np.where(big > 1.0, 1e100, 1.0)))
    assert fine.nu.samples[(3,) * dim] == 1e300


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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cubes_where_the_weight_averages_zero_are_left_out(self, dim):
        spec = GridSpec(dim, 1.0, 8)
        rng = np.random.default_rng(2)
        arr = rng.uniform(0.2, 5.0, spec.shape)
        arr[rng.random(spec.shape) < 0.3] = 0.0
        w, fam, eps = GridFunction(spec, arr), default_family(spec), 0.5
        ratios = []
        for k in range(fam.size):
            Q = fam.cube(k)
            if fam.aligned[k]:  # an aligned cube sums its cells
                cells = w.samples[cell_slices_oracle(spec, Q)]
                lo = float(np.sum(cells)) * spec.h ** dim / Q.measure
                hi = (float(np.sum(cells ** (1.0 + eps))) * spec.h ** dim / Q.measure) ** (1.0 / (1.0 + eps))
            else:  # a shifted cube cuts cells: integrate its overlaps
                lo = _cube_power_integral(w, 1.0, Q) / Q.measure
                hi = (_cube_power_integral(w, 1.0 + eps, Q) / Q.measure) ** (1.0 / (1.0 + eps))
            if lo > 0.0:
                ratios.append(hi / lo)
        assert len(ratios) < fam.size
        assert reverse_holder_probe(w, eps, fam) == pytest.approx(max(ratios), rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_weight_zero_on_every_cell_is_refused(self, dim):
        spec = GridSpec(dim, 1.0, 8)
        with pytest.raises(NonPositiveWeight):
            reverse_holder_probe(GridFunction.constant(spec, 0.0), 0.5, default_family(spec))


class TestFamilyMonotonicity:
    def test_bigger_family_never_smaller(self, spec32, rng):
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

    one = GridFunction.constant(spec32, 1.0)
    with pytest.raises(EmptyCubeFamily):
        ap_constant(one, 2.0, family_from_cubes(spec32, []))
