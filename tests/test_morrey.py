import numpy as np
import pytest
from conftest import _cube_power_integral, cell_slices_oracle, family_from_cubes, fsum_bound, power_averages

from bifrac import (
    Cube,
    EmptyCubeFamily,
    ExponentOrder,
    GridFunction,
    GridSpec,
    MorreyParams,
    all_intervals,
    lp_norm,
    morrey_norm,
    morrey_norm_witness,
    power_scaling_check,
    vector_morrey_norm,
)


class TestMorreyParams:
    def test_order_enforced(self):
        with pytest.raises(ExponentOrder):
            MorreyParams(2.0, 3.0)
        MorreyParams(3.0, 3.0)  # q = p0 allowed

    def test_quasi_norm_exponents_allowed(self):
        MorreyParams(1.0, 0.8)  # q <= 1 supported as a quasi-norm


class TestMorreyNorm:
    def test_equal_exponents_is_best_lq(self, spec32, intervals32, rng):
        f = GridFunction(spec32, rng.uniform(0, 1, 32))
        got = morrey_norm(f, MorreyParams(2.0, 2.0), intervals32)
        assert got == pytest.approx(lp_norm(f, 2.0), rel=1e-12)

    def test_indicator_unit_norm(self):
        spec = GridSpec(1, 2.0, 64)
        fam = all_intervals(spec)
        f = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        for p0, q in ((2.0, 1.0), (4.0, 2.0), (3.0, 1.5)):
            assert morrey_norm(f, MorreyParams(p0, q), fam) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_homogeneity(self, spec32, intervals32, rng):
        f = GridFunction(spec32, rng.normal(size=32))
        base = morrey_norm(f, MorreyParams(3.0, 2.0), intervals32)
        scaled = morrey_norm(f * (-2.5), MorreyParams(3.0, 2.0), intervals32)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_triangle_inequality(self, spec32, intervals32, rng):
        for _ in range(10):
            f = GridFunction(spec32, rng.normal(size=32))
            g = GridFunction(spec32, rng.normal(size=32))
            params = MorreyParams(3.0, 1.5)
            lhs = morrey_norm(f + g, params, intervals32)
            rhs = morrey_norm(f, params, intervals32) + morrey_norm(g, params, intervals32)
            assert lhs <= rhs * (1 + 1e-12)

    def test_family_monotonicity(self, spec32, intervals32, rng):
        f = GridFunction(spec32, rng.uniform(0, 1, 32))
        part = family_from_cubes(spec32, intervals32.cubes[::3])
        params = MorreyParams(4.0, 2.0)
        assert morrey_norm(f, params, part) <= morrey_norm(f, params, intervals32) + 1e-15

    def test_empty_family(self, spec32):
        f = GridFunction.constant(spec32, 1.0)
        empty = family_from_cubes(spec32, [])
        with pytest.raises(EmptyCubeFamily):
            morrey_norm(f, MorreyParams(2.0, 1.0), empty)
        with pytest.raises(EmptyCubeFamily):
            morrey_norm_witness(f, MorreyParams(2.0, 1.0), empty)

    def test_witness_reproduces(self, spec32, intervals32, rng):
        f = GridFunction(spec32, rng.uniform(0, 1, 32))
        params = MorreyParams(4.0, 2.0)
        value, witness = morrey_norm_witness(f, params, intervals32)
        cells = f.abs_pow(params.q).samples[cell_slices_oracle(spec32, witness)]
        direct = witness.measure ** (1.0 / params.p0 - 1.0 / params.q) * (
            float(np.sum(cells)) * spec32.h
        ) ** (1.0 / params.q)
        assert direct == pytest.approx(value, rel=1e-12)

    def test_the_norm_is_the_witness_value_and_builds_no_cube(self, spec32, intervals32, rng, monkeypatch):
        # morrey_norm runs on the verify hot path, where a Cube per call is waste
        f = GridFunction(spec32, rng.uniform(0, 1, 32))
        params = MorreyParams(4.0, 2.0)
        value, _ = morrey_norm_witness(f, params, intervals32)
        monkeypatch.setattr(type(intervals32), "cube", lambda self, k: pytest.fail("morrey_norm built a Cube"))
        assert morrey_norm(f, params, intervals32) == value


class TestVectorMorrey:
    def test_constants(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        got = vector_morrey_norm(one, one, 2.0, 2.0, 2.0, intervals32)
        biggest = max(Q.measure for Q in intervals32.cubes)
        assert got == pytest.approx(biggest ** 0.5, rel=1e-12)

    def test_single_cube_lower_bound(self, spec32, intervals32, rng):
        f1 = GridFunction(spec32, rng.uniform(0, 1, 32))
        f2 = GridFunction(spec32, rng.uniform(0, 1, 32))
        got = vector_morrey_norm(f1, f2, 2.0, 2.0, 3.0, intervals32)
        for Q in intervals32.cubes[::17]:
            lower = (
                Q.measure ** 0.5
                * (_cube_power_integral(f1, 2.0, Q) / Q.measure) ** (1.0 / 2.0)
                * (_cube_power_integral(f2, 3.0, Q) / Q.measure) ** (1.0 / 3.0)
            )
            assert got >= lower - 1e-12

    def test_matches_enumeration(self, spec32, intervals32, rng):
        f1 = GridFunction(spec32, rng.uniform(0, 1, 32))
        f2 = GridFunction(spec32, rng.uniform(0, 1, 32))
        p0, p1, p2 = 3.0, 2.0, 4.0
        got = vector_morrey_norm(f1, f2, p0, p1, p2, intervals32)
        h = spec32.h
        best = 0.0
        for i in range(32):
            for j in range(i + 1, 33):
                meas = (j - i) * h
                a1 = (np.sum(f1.samples[i:j] ** p1) * h / meas) ** (1 / p1)
                a2 = (np.sum(f2.samples[i:j] ** p2) * h / meas) ** (1 / p2)
                best = max(best, meas ** (1 / p0) * a1 * a2)
        assert got == pytest.approx(best, rel=1e-12)

    def test_holder_across_components(self, spec32, intervals32, rng):
        # |Q|^{1/p0} prod avg <= prod of single Morrey norms when
        # 1/q1 + 1/q2 = 1/p0, on the shared family
        f1 = GridFunction(spec32, rng.uniform(0, 1, 32))
        f2 = GridFunction(spec32, rng.uniform(0, 1, 32))
        p1, p2 = 2.0, 2.0
        q1, q2 = 3.0, 6.0
        p0 = 1.0 / (1.0 / q1 + 1.0 / q2)
        lhs = vector_morrey_norm(f1, f2, p0, p1, p2, intervals32)
        rhs = morrey_norm(f1, MorreyParams(q1, p1), intervals32) * morrey_norm(
            f2, MorreyParams(q2, p2), intervals32
        )
        assert lhs <= rhs * (1 + 1e-12)


class TestPowerScaling:
    def test_constant_function(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        lhs, rhs = power_scaling_check(one, 4.0, 3.0, 2.0, intervals32)
        biggest = max(Q.measure for Q in intervals32.cubes)
        assert lhs == pytest.approx(biggest ** 0.25, rel=1e-12)
        assert rhs == pytest.approx(biggest ** 0.25, rel=1e-12)

    def test_indicator(self):
        spec = GridSpec(1, 2.0, 64)
        fam = all_intervals(spec)
        f = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        lhs, rhs = power_scaling_check(f, 4.0, 3.0, 1.5, fam)
        assert lhs == pytest.approx(1.0, rel=1e-12)
        assert rhs == pytest.approx(1.0, rel=1e-12)

    def test_random_exact_identity(self, spec32, intervals32, rng):
        for _ in range(20):
            f = GridFunction(spec32, rng.uniform(0.05, 2.0, 32))
            q = rng.uniform(2.0, 6.0)
            p0 = q + rng.uniform(0.0, 4.0)
            ell = rng.uniform(1.01, q - 0.5)
            lhs, rhs = power_scaling_check(f, p0, q, ell, intervals32)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_exponent_order(self, spec32, intervals32):
        one = GridFunction.constant(spec32, 1.0)
        with pytest.raises(ExponentOrder):
            power_scaling_check(one, 4.0, 3.0, 3.5, intervals32)


def test_2d_norm_of_a_corpus_item_is_within_the_fsum_bound_of_the_brute_value():
    # the norm over the 2D default family against the max of per-cube
    # overlap integrals: finite, not NaN, and within fsum_bound of it
    from bifrac.families import default_family
    from bifrac.harness import HARNESS_SPEC_2D, corpus

    f = corpus(0, "random-steps", spec=HARNESS_SPEC_2D, count=1)[0].f
    fam = default_family(HARNESS_SPEC_2D)
    got = morrey_norm(f, MorreyParams(4.0, 2.0), fam)
    brute = max(
        Q.measure ** 0.25 * (_cube_power_integral(f, 2.0, Q) / Q.measure) ** 0.5
        for Q in fam.cubes
    )
    assert np.isfinite(got)
    assert abs(got - brute) <= fsum_bound(HARNESS_SPEC_2D) * brute


def test_2d_norm_of_finite_data_whose_integrals_overflow_is_inf():
    # f^2 = 1.69e308 is finite on each cell of the block, but its integral
    # over the block overflows; a shifted cube's overflowed partial sum over
    # rows it does not reach used to meet a zero overlap and read nan
    from bifrac.families import default_family

    spec = GridSpec(2, 2.0, 8)
    v = np.zeros(spec.shape)
    v[2:6, 2:6] = 1.3e154
    f = GridFunction(spec, v)
    fam = default_family(spec)
    avgs = power_averages(f, 2.0, fam)
    assert not np.isnan(avgs).any()
    assert np.isinf(avgs[fam.aligned]).any()
    assert morrey_norm(f, MorreyParams(4.0, 2.0), fam) == np.inf


def test_vector_norm_reads_inf_where_one_average_vanishes_and_the_other_overflows():
    # f1 is 0 on the cells where |f2|^2 leaves the float range, so those
    # cubes read 0 * inf; the norm is the +inf sentinel that the scalar norm
    # of f2 reads, with no warning (warnings are errors in this suite)
    from bifrac.families import default_family

    spec = GridSpec(1, 4.0, 16)
    fam = default_family(spec)
    f1 = GridFunction(spec, np.where(np.arange(16) < 8, 0.0, 1.0))
    f2 = GridFunction(spec, np.where(np.arange(16) < 8, 1e200, 1.0))
    assert morrey_norm(f2, MorreyParams(4.0, 2.0), fam) == np.inf
    assert vector_morrey_norm(f1, f2, 4.0, 2.0, 2.0, fam) == np.inf
