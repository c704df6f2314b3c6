"""Profiles, corpora, and the verification protocols."""

import math

import numpy as np
import pytest
from conftest import locate_shifted_dyadic_oracle

from bifrac import (
    GridFunction,
    RelationViolated,
    small_exponent_chain_check,
    corpus,
    dilate_item,
    make_profile,
    profile_violations,
    run_verify,
    verify_structural,
)
from bifrac.harness import (
    SMALL_EXPONENT_Q,
    HARNESS_SPEC,
    PROFILE_CATALOG,
    SplitMix64,
    TAGS,
    _mix_seed,
    catalog_profiles,
    check_sparse_invariants,
    cube_location_worst_ratio,
    domination_ratio,
    evaluate_inequality_item,
    local_part_ratio,
)
from bifrac.families import default_family, nested_pairs


@pytest.fixture(scope="module")
def fam64():
    return default_family(HARNESS_SPEC)


@pytest.fixture(scope="module")
def pairs64(fam64):
    return nested_pairs(fam64)


class TestSplitMix64:
    def test_known_stream(self):
        # splitmix64 reference values for seed 1234567
        rng = SplitMix64(1234567)
        first = rng.next_u64()
        rng2 = SplitMix64(1234567)
        assert rng2.next_u64() == first
        assert 0.0 <= SplitMix64(42).uniform() < 1.0

    def test_randint_bounds(self):
        rng = SplitMix64(9)
        vals = [rng.randint(3, 7) for _ in range(200)]
        assert min(vals) >= 3 and max(vals) <= 7
        assert set(vals) == {3, 4, 5, 6, 7}


class TestMakeProfile:
    def test_t11_boundary_rejection(self):
        # alpha equal to 1/p0 pushes q0 to infinity
        with pytest.raises(RelationViolated) as err:
            make_profile("T1.1", n=1, alpha=0.5, p1=4, p2=4, r=2, s=2, p0=2, a=1.25)
        assert any("q0" in v for v in err.value.relations)

    def test_t11_accepted_example(self):
        prof = make_profile("T1.1", n=1, alpha=1 / 3, p1=4, p2=4, r=2, s=2, p0=2, a=1.25)
        assert prof.q0 == pytest.approx(6.0)
        assert prof.q == pytest.approx(6.0)
        assert prof.p == pytest.approx(2.0)

    def test_c53_rejection_then_accept(self):
        _, violations = profile_violations(
            "C5.3", n=1, alpha=0.5, q1=4, q2=4, p1=2, p2=2
        )
        assert violations
        prof = make_profile("C5.3", n=1, alpha=0.25, q1=4, q2=4, p1=2, p2=2)
        assert prof.q0 == pytest.approx(4.0)
        assert prof.q == pytest.approx(2.0)

    def test_catalog_all_valid(self):
        for tag in TAGS:
            profs = catalog_profiles(tag)
            assert len(profs) >= 3
            for p in profs:
                assert p.tag == tag

    def test_fuzzed_acceptance_iff_relations_hold(self):
        # random raw exponents: accepted exactly when no relation fails
        rng = SplitMix64(77)
        accepted = rejected = 0
        for _ in range(300):
            raw = dict(
                n=1,
                alpha=rng.uniform(0.05, 0.95),
                p1=rng.uniform(1.2, 8.0),
                p2=rng.uniform(1.2, 8.0),
                r=rng.uniform(1.1, 3.0),
                s=rng.uniform(1.1, 3.0),
                p0=rng.uniform(1.0, 4.0),
                a=rng.uniform(0.9, 2.0),
            )
            prof, violations = profile_violations("T1.1", **raw)
            if violations:
                rejected += 1
                with pytest.raises(RelationViolated):
                    make_profile("T1.1", **raw)
            else:
                accepted += 1
                assert prof is not None
                # every stated relation holds on the accepted profile
                assert abs(1 / prof.r + 1 / prof.s - 1) <= 1e-12
                assert prof.p1 > prof.r > 1 and prof.p2 > prof.s > 1
                assert abs(1 / prof.q0 - (1 / prof.p0 - prof.alpha / prof.n)) <= 1e-12
                assert abs(prof.q / prof.q0 - prof.p / prof.p0) <= 1e-12
        assert rejected > 0  # fuzz hits both branches
        # accepted may be rare; conjugacy is measure-zero for random (r, s)

    def test_t42_a_window(self):
        with pytest.raises(RelationViolated):
            make_profile(
                "T4.2", n=1, alpha=0.5, p1=4, p2=4, r=2, s=2, p0=2, r0=2, a=1.25
            )

    def test_t52_relations(self):
        prof = make_profile("T5.2", **PROFILE_CATALOG["T5.2"][0])
        inv_sum = 1 / prof.q1 + 1 / prof.q2
        assert abs(
            1 / prof.q0 - (1 / prof.r0 + inv_sum - prof.alpha / prof.n)
        ) <= 1e-12
        assert prof.r1 > prof.q
        assert abs(prof.q / prof.q0 - prof.p1 / prof.q1) <= 1e-12


class TestCorpus:
    def test_deterministic(self):
        a = corpus(13, "random-steps", count=4)
        b = corpus(13, "random-steps", count=4)
        for x, y in zip(a, b):
            assert x.item_id == y.item_id
            assert np.array_equal(x.f.samples, y.f.samples)
            assert np.array_equal(x.w1.samples, y.w1.samples)

    def test_indicator_catalog_item(self):
        item = corpus(5, "indicators", count=1)[0]
        spec = item.spec
        want = np.zeros(spec.shape)
        lo = spec.cell_of_point((-1.0,))[0]
        hi = spec.cell_of_point((1.0 - spec.h / 2,))[0] + 1
        want[lo:hi] = 1.0
        assert np.array_equal(item.f.samples, want)
        assert np.all(item.w1.samples == 1.0)

    def test_power_weights_unit_item(self):
        item = corpus(5, "power-weights", count=1)[0]
        assert np.all(item.w1.samples == 1.0)
        assert np.all(item.w2.samples == 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            corpus(1, "bogus")

    def test_weights_strictly_positive(self):
        for kind in ("indicators", "random-steps", "spikes", "power-weights"):
            for item in corpus(3, kind, count=4):
                for w in (item.w1, item.w2, item.v, item.hfun):
                    assert float(w.samples.min()) > 0.0

    def test_dilated_item_scales_geometry(self):
        item = corpus(21, "random-steps", count=1, support=(0.25, 1.0))[0]
        double = dilate_item(item, 1)
        # supports scale by 2: total mass of f scales by 2 in 1D
        assert np.sum(double.f.samples) == pytest.approx(
            2.0 * np.sum(item.f.samples), rel=1e-12
        )


class TestStructural:
    def test_all_pass(self):
        reports = verify_structural(3, n_items=4, cube_samples=100)
        bad = [r for r in reports if not r.passed]
        assert not bad, [f"{r.scenario}: {r.note}" for r in bad]

    @pytest.mark.parametrize("dim, seed", [(1, 0), (1, 7), (1, 11), (2, 3), (2, 7)])
    def test_cube_location_matches_per_cube_oracle(self, dim, seed):
        # the draws, containment test and ratio of the per-cube loop it replaced
        from bifrac import Cube

        samples = 300 if dim == 1 else 60
        rng = SplitMix64(_mix_seed(seed, f"one-third-{dim}d"))
        box_half = 4.0 if dim == 1 else 2.0
        worst, all_ok = 0.0, True
        for _ in range(samples):
            side = rng.uniform(0.01, box_half / 2)
            q = Cube(tuple(rng.uniform(-box_half, box_half - side) for _ in range(dim)), side)
            _, qt = locate_shifted_dyadic_oracle(q)
            ok = qt.contains_cube(q, tol=1e-9 * max(1.0, side))
            all_ok = all_ok and ok and qt.side <= 6.0 * side * (1 + 1e-9)
            worst = max(worst, qt.side / side)
        assert repr(cube_location_worst_ratio(seed, samples, dim)) == repr((worst, all_ok))

    def test_local_part_ratio_reads_the_local_half_of_the_split(self):
        from bifrac import local_global_split, sparse_bound
        from bifrac.harness import HARNESS_GRID, HARNESS_Q0, STRUCTURAL_ALPHA
        from bifrac.lattice import _cell_slices

        for item in corpus(5, "spikes", count=2) + corpus(5, "random-steps", count=2):
            local, _ = local_global_split(item.f, item.g, STRUCTURAL_ALPHA, HARNESS_Q0)
            sb = sparse_bound(item.f, item.g, STRUCTURAL_ALPHA, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
            sl = _cell_slices(item.spec, HARNESS_Q0, clip=False)
            lv, sv = local.samples[sl].reshape(-1), sb.samples[sl].reshape(-1)
            assert np.all(sv > 0)
            assert repr(local_part_ratio(item)) == repr(float(np.max(lv / sv)))

    def test_local_part_flat_matches_series(self):
        # constant data on a root whose tripled subcubes stay inside the
        # box: every cell has the same exact local / sparse ratio
        from bifrac import Cube, DyadicGrid, GridFunction, local_global_split, sparse_bound

        spec = HARNESS_SPEC
        q0 = Cube((0.0,), 2.0)
        one = GridFunction.constant(spec, 1.0)
        alpha = 0.5
        local, _ = local_global_split(one, one, alpha, q0)
        sb = sparse_bound(one, one, alpha, 2.0, 2.0, q0, DyadicGrid((0.0,)))
        h = spec.h
        d_max = math.floor(q0.side / h)
        top = (2.0 / alpha) * ((d_max + 0.5) * h) ** alpha
        levels = int(math.log2(q0.side / h)) + 1
        bot = sum((q0.side * 2.0 ** (-k)) ** alpha for k in range(levels))
        lo_cell = spec.cell_of_point((0.0 + h / 2,))[0]
        hi_cell = spec.cell_of_point((2.0 - h / 2,))[0] + 1
        ratios = local.samples[lo_cell:hi_cell] / sb.samples[lo_cell:hi_cell]
        assert np.allclose(ratios, top / bot, rtol=1e-9)

    def test_sparse_invariants_over_corpora(self):
        from bifrac import cz_decompose
        from bifrac.harness import HARNESS_GRID, HARNESS_Q0

        for seed in (0, 1, 2):
            for kind in ("spikes", "random-steps"):
                for item in corpus(seed, kind, count=2):
                    fam = cz_decompose(
                        item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID
                    )
                    assert not check_sparse_invariants(fam)


class TestInequalitySuite:
    def test_ratio_scale_invariance(self, fam64, pairs64):
        prof = catalog_profiles("T1.1")[0]
        item = corpus(2, "random-steps", count=1)[0]
        lhs, rhs, const = evaluate_inequality_item(prof, item, fam64, pairs64)
        ratio = lhs / (const.value * rhs)
        import dataclasses

        scaled = dataclasses.replace(item, f=item.f * 3.7)
        lhs2, rhs2, const2 = evaluate_inequality_item(prof, scaled, fam64, pairs64)
        ratio2 = lhs2 / (const2.value * rhs2)
        assert ratio2 == pytest.approx(ratio, rel=1e-10)
        assert const2.value == pytest.approx(const.value, rel=1e-12)

    def test_unit_weights_give_unit_constant(self, fam64, pairs64):
        prof = catalog_profiles("T1.1")[0]
        item = corpus(5, "indicators", count=1)[0]  # catalog item has unit weights
        _, _, const = evaluate_inequality_item(prof, item, fam64, pairs64)
        assert const.value == pytest.approx(1.0)

    def test_run_verify_passes(self):
        prof = catalog_profiles("C5.3")[0]
        reports, summary = run_verify(prof, "random-steps", 11, n_cal=4, n_eval=6)
        assert summary["failures"] == 0
        assert all(r.passed for r in reports)
        assert summary["max_ratio"] <= summary["bound"]

    def test_run_verify_counts_skipped_scenarios(self, monkeypatch, fam64, pairs64):
        # a 1e-300 cell makes w1^{-p1'} overflow, so the constant is +inf
        import dataclasses

        import bifrac.harness as H

        def tiny_w1(item):
            w1 = item.w1.samples.copy()
            w1[7] = 1e-300
            return dataclasses.replace(item, w1=GridFunction(item.spec, w1, nonnegative=True))

        real = H.corpus

        def corpus_with_tiny_weights(seed, kind, count=5, **kw):
            items = real(seed, kind, count=count, **kw)
            return [tiny_w1(it) if seed == 13 and i in (1, 3) else it for i, it in enumerate(items)]

        monkeypatch.setattr(H, "corpus", corpus_with_tiny_weights)
        prof = catalog_profiles("T1.1")[0]
        runs = [run_verify(prof, "random-steps", 13, 3, 5, fam64, pairs64) for _ in range(2)]
        (reports, summary), (_, again) = runs
        assert summary["skipped"] == 2 == again["skipped"]
        assert [r.note == H.SKIPPED_NOTE for r in reports] == [False, True, False, True, False]
        assert list(summary)[-1] == "skipped"

    def test_t11_dilation_ratio_drift(self, fam64, pairs64):
        prof = catalog_profiles("T1.1")[0]
        items = corpus(17, "random-steps", count=2, support=(0.25, 1.0))
        for item in items:
            ratios = []
            for j in (0, 1, 2):
                it = dilate_item(item, j) if j else item
                lhs, rhs, const = evaluate_inequality_item(prof, it, fam64, pairs64)
                ratios.append(lhs / (const.value * rhs))
            for r in ratios[1:]:
                assert abs(r - ratios[0]) / ratios[0] <= 0.15


class TestDomination:
    def test_modes_bounded(self, fam64, pairs64):
        prof11 = catalog_profiles("T1.1")[0]
        prof42 = catalog_profiles("T4.2")[0]
        item = corpus(8, "spikes", count=1)[0]
        for mode, prof in (
            ("weighted", prof11),
            ("small-exponent", prof11),
            ("two-weight", prof42),
            ("two-weight-decay", prof42),
        ):
            ratio = domination_ratio(prof, item, mode, fam64, pairs64)
            assert math.isfinite(ratio)
            assert ratio > 0.0

    def test_small_exponent_bound(self):
        assert SMALL_EXPONENT_Q <= 1.0

    def test_unit_weight_reduction(self, fam64, pairs64):
        # with unit weights the check reduces to a pure average comparison and
        # the constant is 1
        prof = catalog_profiles("T1.1")[0]
        item = corpus(5, "indicators", count=1)[0]
        ratio = domination_ratio(prof, item, "weighted", fam64, pairs64)
        assert math.isfinite(ratio)


class TestMechanism:
    def test_power_weights_chain(self, fam64, pairs64):
        prof = catalog_profiles("C1.4")[0]
        for item in corpus(9, "power-weights", count=3):
            res = small_exponent_chain_check(
                item.weight_vector(), prof, fam64, pairs64
            )
            assert res["finite"]
            assert res["within_factor_two"]
            assert res["pair_constant"] <= res["bound_chain"] * (1 + 1e-9)


class TestGlobalTerm:
    def test_far_field_ratio_bounded(self, fam64, pairs64):
        from bifrac import global_term_ratio

        prof = catalog_profiles("T1.1")[0]
        cal = [
            global_term_ratio(prof, it, fam64, pairs64)
            for it in corpus(_mix_seed(41, "calibration"), "random-steps", count=6)
        ]
        bound = 2.0 * max(cal)
        for it in corpus(41, "random-steps", count=8):
            ratio = global_term_ratio(prof, it, fam64, pairs64)
            assert math.isfinite(ratio)
            assert ratio <= bound


    def test_far_field_ratio_reads_the_far_half_of_the_split(self, fam64, pairs64):
        from bifrac import (
            MorreyParams,
            global_term_ratio,
            iida_constant,
            local_global_split,
            morrey_norm,
            vector_morrey_norm,
        )
        from bifrac.harness import HARNESS_Q0, _substituted

        prof = catalog_profiles("T1.1")[0]
        for it in corpus(41, "power-weights", count=2):
            wv = it.weight_vector()
            _, far = local_global_split(it.f, it.g, prof.alpha, HARNESS_Q0)
            lhs = morrey_norm(far * wv.nu, MorreyParams(prof.q0, prof.q), fam64)
            rhs = vector_morrey_norm(it.f * it.w1, it.g * it.w2, prof.p0, prof.p1, prof.p2, fam64)
            const = iida_constant(wv, prof.a * prof.q0, prof.q, *_substituted(prof), pairs64)
            assert repr(global_term_ratio(prof, it, fam64, pairs64)) == repr(lhs / (const.value * rhs))


class TestRefinementDrift:
    def test_c53_ratio_stable_under_doubling(self):
        # closed-form kernel case: the norm ratio drifts < 10% as N doubles
        from bifrac import Cube, GridFunction, GridSpec, MorreyParams, bi_frac, morrey_norm
        from bifrac.families import all_intervals

        prof = catalog_profiles("C5.3")[0]
        ratios = []
        for n_cells in (64, 128):
            spec = GridSpec(1, 4.0, n_cells)
            fam = all_intervals(spec)
            chi = GridFunction.indicator(spec, Cube((-1.0,), 2.0))
            out = bi_frac(chi, chi, prof.alpha)
            lhs = morrey_norm(out, MorreyParams(prof.q0, prof.q), fam)
            rhs = morrey_norm(chi, MorreyParams(prof.q1, prof.p1), fam) * morrey_norm(
                chi, MorreyParams(prof.q2, prof.p2), fam
            )
            ratios.append(lhs / rhs)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.10
