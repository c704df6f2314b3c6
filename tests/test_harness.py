"""Profiles, corpora, and the verification protocols."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from conftest import cube_location_worst_ratio_oracle, locate_shifted_dyadic_oracle, one_third_cubes_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

import bifrac.harness as H
from bifrac import (
    AverageOverflow,
    ConfigInvalid,
    Cube,
    GridFunction,
    InfiniteConstant,
    RelationViolated,
    SpecMismatch,
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
    HARNESS_SPEC_2D,
    PROFILE_CATALOG,
    PROFILE_KEYS,
    SplitMix64,
    TAGS,
    _materialize,
    _mix_seed,
    _one_third_cubes,
    catalog_profiles,
    check_sparse_invariants,
    cube_location_worst_ratio,
    domination_ratio,
    evaluate_inequality_item,
    local_part_ratio,
    local_part_ratios,
)
from bifrac.cli import main
from bifrac.families import default_family, nested_pairs


def _tiny_w1(item):
    # a 1e-300 cell makes w1^{-p1'} overflow, so the item's constant is +inf
    w1 = item.w1.samples.copy()
    w1[7] = 1e-300
    return dataclasses.replace(item, w1=GridFunction(item.spec, w1, nonnegative=True))


def _tiny_weights_where(monkeypatch, tiny):
    """Make item i of the corpus for `seed` infinite wherever tiny(seed, i) holds."""
    real = H.corpus

    def corpus_with_tiny_weights(seed, kind, count=5, **kw):
        items = real(seed, kind, count=count, **kw)
        return [_tiny_w1(it) if tiny(seed, i) else it for i, it in enumerate(items)]

    monkeypatch.setattr(H, "corpus", corpus_with_tiny_weights)


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

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2000), st.integers(0, 3))
    @settings(max_examples=60)
    def test_batched_draws_equal_the_scalar_stream(self, seed, count, before):
        # after a few scalar draws, one batch of outputs, then one of uniforms, then the stream goes on
        batched, scalar = SplitMix64(seed), SplitMix64(seed)
        for _ in range(before):
            assert batched.next_u64() == scalar.next_u64()
        assert batched.next_u64s(count).tolist() == [scalar.next_u64() for _ in range(count)]
        got = batched.uniforms(count)
        want = np.array([scalar.uniform() for _ in range(count)])
        assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))
        assert batched.state == scalar.state and batched.next_u64() == scalar.next_u64()


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

    def test_catalog_profiles_hold_the_keys_of_their_tag(self):
        # every catalog key is one its tag reads, and the required keys alone
        # are enough to check the relations (no KeyError)
        for tag in TAGS:
            required, optional = PROFILE_KEYS[tag]
            for raw in PROFILE_CATALOG[tag]:
                assert set(required) <= set(raw) <= set(required) | set(optional)
                profile_violations(tag, **{k: raw[k] for k in required})

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

    @pytest.mark.parametrize(
        "tag, change, named",
        [
            ("T9.9", {}, "unknown profile tag 'T9.9'"),
            ("T1.1", {"p0": None}, "missing keys ['p0'], unknown keys []"),
            ("T1.1", {"q1": 4}, "missing keys [], unknown keys ['q1']"),
            ("C5.3", {"p2": None, "alhpa": 0.25}, "missing keys ['p2'], unknown keys ['alhpa']"),
        ],
        ids=["unknown-tag", "missing-key", "unknown-key", "both"],
    )
    def test_a_key_outside_the_profile_contract_is_config_invalid(self, tag, change, named):
        # before, a missing key raised KeyError and an unknown key was ignored
        raw = {**PROFILE_CATALOG.get(tag, PROFILE_CATALOG["T1.1"])[0], **change}
        raw = {k: v for k, v in raw.items() if v is not None}
        for check in (make_profile, profile_violations):
            with pytest.raises(ConfigInvalid) as err:
                check(tag, **raw)
            assert named in str(err.value)


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

    @pytest.mark.parametrize("kind", ["indicators", "power-weights"])
    def test_a_2d_corpus_refuses_the_kinds_it_does_not_build(self, kind):
        # 2D items are random steps or spikes with unit weights; these kinds
        # would come out as random steps under another name
        with pytest.raises(ValueError, match=re.escape(f"a 2D corpus kind must be one of ('random-steps', 'spikes'), got '{kind}'")):
            corpus(3, kind, spec=H.HARNESS_SPEC_2D)

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

    def test_an_already_dilated_item_is_refused_by_name(self):
        # the descriptors hold corpus coordinates, so dilations do not compose
        item = corpus(21, "random-steps", count=1)[0]
        half = dilate_item(item, -1)
        assert half.item_id == f"{item.item_id}@x0.5"
        with pytest.raises(ValueError, match=re.escape(f"item {half.item_id!r} is already dilated")):
            dilate_item(half, -1)

    def test_dilated_power_weights_are_clamped_not_infinite(self):
        # a shrinking dilation can put x0 on a cell midpoint, where |x - x0|^beta
        # with beta < 0 is +inf before the clamp
        clamped = 0
        for seed in range(20):
            for item in corpus(seed, "power-weights", count=5):
                for j in (-1, -2, -3):
                    it = dilate_item(item, j)
                    for w in (it.w1, it.w2):
                        assert H.WEIGHT_CLAMP <= float(w.samples.min())
                        assert float(w.samples.max()) <= 1.0 / H.WEIGHT_CLAMP
                        clamped += float(w.samples.max()) == 1.0 / H.WEIGHT_CLAMP
        assert clamped > 0

    def test_dilated_2d_spikes_items_pass_the_concentration_guard(self):
        # the guard runs again at the new scale, as in 1D, and leaves nothing to
        # rescale up to the rounding of its own last factor
        spec = H.HARNESS_SPEC_2D
        q0 = Cube((0.0, 0.0), spec.half_width)
        for seed in range(30):
            for item in corpus(seed, "spikes", spec, count=4):
                for j in (-1, 1, 2):
                    it = dilate_item(item, j)
                    assert H._concentration_guard(it.f, it.g, q0) == pytest.approx(1.0, rel=0, abs=1e-12)


def _piece_text(piece) -> str:
    return repr(tuple(p if isinstance(p, str) else float(p).hex() for p in piece))


# The SHA-256 below was recorded when the corpus pieces became n-dimensional;
# the change kept every array's bytes, so it equals the one of the commit before.
_PINNED_CORPUS_SHA256 = "8c1dc56f4c1e20015adb8d319160c981bf6bdfa93319e3a10b7b58f6d6c22f79"


@pytest.mark.parametrize(
    "spec, lower, upper, cells",
    [
        (HARNESS_SPEC, (-10.0,), (-6.0,), 0),  # wholly left of [-4, 4)
        (HARNESS_SPEC, (-4.5,), (-4.25,), 0),
        (HARNESS_SPEC, (4.5,), (6.0,), 0),  # wholly right
        (HARNESS_SPEC, (-5.0,), (-3.0,), 8),  # across the left edge: cells 0 ... 7
        (HARNESS_SPEC, (3.0,), (5.0,), 8),
        (HARNESS_SPEC_2D, (-3.0, 0.0), (-2.5, 1.0), 0),  # wholly left on axis 0 of [-2, 2)^2
        (HARNESS_SPEC_2D, (0.0, 2.5), (1.0, 3.0), 0),
        (HARNESS_SPEC_2D, (-3.0, -3.0), (-1.5, 1.0), 4 * 24),
    ],
)
def test_a_block_is_clamped_to_the_box(spec, lower, upper, cells):
    arr = _materialize(spec, [("block", lower, upper, 1.0)], 1.0)
    assert np.count_nonzero(arr) == cells and set(arr.ravel().tolist()) <= {0.0, 1.0}


def test_corpus_bytes_are_pinned_across_commits():
    # seeds 0-19, every 1D kind and the 2D kinds, each item and one dilation
    # of it.  Power weights are hashed by their descriptors: their samples
    # come from an array `**`, whose bits follow the host's SIMD dispatch.
    digest = hashlib.sha256()
    for seed in range(20):
        for spec, kinds in ((HARNESS_SPEC, H.CORPUS_KINDS), (H.HARNESS_SPEC_2D, ("random-steps", "spikes"))):
            for kind in kinds:
                for item in corpus(seed, kind, spec=spec):
                    for it in (item, dilate_item(item, (-1, 1, 2)[seed % 3])):
                        digest.update(it.item_id.encode())
                        for name in ("f", "g", "w1", "w2", "v", "hfun"):
                            if kind == "power-weights" and name in ("w1", "w2"):
                                digest.update("".join(map(_piece_text, it.descriptors[name])).encode())
                            else:
                                digest.update(getattr(it, name).samples.tobytes())
    assert digest.hexdigest() == _PINNED_CORPUS_SHA256


class TestStructural:
    def test_all_pass(self):
        reports = verify_structural(3)
        bad = [r for r in reports if not r.passed]
        assert not bad, [f"{r.scenario}: {r.note}" for r in bad]

    @pytest.mark.parametrize("dim, seed", [(1, 0), (1, 7), (1, 11), (2, 3), (2, 7)])
    def test_cube_location_matches_per_cube_oracle(self, dim, seed):
        # the draws, containment test and ratio of the per-cube loop it replaced
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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cube_location_equals_the_scalar_draw_loop(self, dim):
        for seed in range(50):
            for got, want in zip(_one_third_cubes(seed, 300, dim), one_third_cubes_oracle(seed, 300, dim)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert repr(cube_location_worst_ratio(seed, 300, dim)) == repr(cube_location_worst_ratio_oracle(seed, 300, dim))

    def test_local_part_ratio_reads_the_local_half_of_the_split(self):
        from bifrac import sparse_bound
        from bifrac.harness import HARNESS_GRID, HARNESS_Q0, STRUCTURAL_ALPHA
        from bifrac.lattice import _cell_slices
        from bifrac.operators import _local_weights, _offset_sum

        for item in corpus(5, "spikes", count=2) + corpus(5, "random-steps", count=2):
            w_local = _local_weights(item.spec, STRUCTURAL_ALPHA, HARNESS_Q0)
            local = _offset_sum(w_local, item.f.samples, item.g.samples)
            sb = sparse_bound(item.f, item.g, STRUCTURAL_ALPHA, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
            sl = _cell_slices(item.spec, HARNESS_Q0, clip=False)
            lv, sv = local[sl].reshape(-1), sb.samples[sl].reshape(-1)
            assert np.all(sv > 0)
            assert repr(local_part_ratio(item)) == repr(float(np.max(lv / sv)))

    @pytest.mark.parametrize("spec", [HARNESS_SPEC, HARNESS_SPEC_2D], ids=["1d", "2d"])
    def test_local_part_ratios_of_a_stack_equal_one_call_per_item(self, spec):
        items = corpus(11, "spikes", spec, count=3) + corpus(11, "random-steps", spec, count=3)
        assert repr(local_part_ratios(items)) == repr([local_part_ratio(it) for it in items])

    @pytest.mark.parametrize("spec", [HARNESS_SPEC, HARNESS_SPEC_2D], ids=["1d", "2d"])
    def test_a_local_kernel_sum_past_the_float_range_is_named(self, spec):
        # every bilinear term 1e200 * 1e200 leaves the float range
        big = GridFunction.constant(spec, 1e200)
        item = dataclasses.replace(corpus(3, "random-steps", spec, count=1)[0], f=big, g=big)
        with pytest.raises(AverageOverflow, match=r"^bi_frac with alpha = 0\.5 leaves the float range on a cell$"):
            local_part_ratios([item])

    def test_local_part_flat_matches_series(self):
        # constant data on a root whose tripled subcubes stay inside the
        # box: every cell has the same exact local / sparse ratio
        from bifrac import Cube, DyadicGrid, GridFunction, sparse_bound
        from bifrac.operators import _local_weights, _offset_sum

        spec = HARNESS_SPEC
        q0 = Cube((0.0,), 2.0)
        one = GridFunction.constant(spec, 1.0)
        alpha = 0.5
        local = _offset_sum(_local_weights(spec, alpha, q0), one.samples, one.samples)
        sb = sparse_bound(one, one, alpha, 2.0, 2.0, q0, DyadicGrid((0.0,)))
        h = spec.h
        d_max = math.floor(q0.side / h)
        top = (2.0 / alpha) * ((d_max + 0.5) * h) ** alpha
        levels = int(math.log2(q0.side / h)) + 1
        bot = sum((q0.side * 2.0 ** (-k)) ** alpha for k in range(levels))
        lo_cell = spec.cell_of_point((0.0 + h / 2,))[0]
        hi_cell = spec.cell_of_point((2.0 - h / 2,))[0] + 1
        ratios = local[lo_cell:hi_cell] / sb.samples[lo_cell:hi_cell]
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

    def test_pairs_of_another_family_or_a_profile_of_another_dimension_are_refused(self, fam64, pairs64):
        # before, pairs of the 32-cell family gave a constant of 0.630 where its own pairs give 1.995
        prof = catalog_profiles("T1.1")[0]
        item = corpus(3, "random-steps", count=1)[0]
        other = nested_pairs(default_family(dataclasses.replace(HARNESS_SPEC, cells_per_axis=32)))
        prof2 = make_profile("T1.1", **{**PROFILE_CATALOG["T1.1"][0], "n": 2})
        for evaluate in (
            lambda p, prs: evaluate_inequality_item(p, item, fam64, prs),
            lambda p, prs: domination_ratio(p, item, "weighted", fam64, prs),
        ):
            with pytest.raises(SpecMismatch, match="^pairs of the family 'intervals' on "):
                evaluate(prof, other)
            with pytest.raises(SpecMismatch, match="^a T1.1 profile with n = 2 on the 1D item "):
                evaluate(prof2, pairs64)
            evaluate(prof, pairs64)
        with pytest.raises(SpecMismatch):
            evaluate_inequality_item(prof, item, fam64, nested_pairs(default_family(HARNESS_SPEC)))

    def test_run_verify_passes(self):
        prof = catalog_profiles("C5.3")[0]
        reports, summary = run_verify(prof, "random-steps", 11, n_cal=4, n_eval=6)
        assert summary["failures"] == 0
        assert all(r.passed for r in reports)
        assert summary["max_ratio"] <= summary["bound"]

    def test_run_verify_counts_skipped_scenarios(self, monkeypatch):
        _tiny_weights_where(monkeypatch, lambda seed, i: seed == 13 and i in (1, 3))
        prof = catalog_profiles("T1.1")[0]
        runs = [run_verify(prof, "random-steps", 13, n_cal=3, n_eval=5) for _ in range(2)]
        (reports, summary), (_, again) = runs
        assert summary["skipped"] == 2 == again["skipped"]
        assert [r.note == H.SKIPPED_NOTE for r in reports] == [False, True, False, True, False]
        assert list(summary)[-1] == "skipped"

    def test_an_infinite_calibration_item_is_left_out_of_c_cal(self, monkeypatch, fam64, pairs64):
        cal_seed = _mix_seed(13, "calibration")
        _tiny_weights_where(monkeypatch, lambda seed, i: seed == cal_seed and i == 2)
        prof = catalog_profiles("T1.1")[0]
        reports, summary = run_verify(prof, "random-steps", 13, n_cal=3, n_eval=5)
        finite = []
        for item in corpus(cal_seed, "random-steps", count=2):
            lhs, rhs, const = evaluate_inequality_item(prof, item, fam64, pairs64)
            finite.append(lhs / (const.value * rhs))
        assert summary["calibration_max"] == max(finite)
        assert summary["bound"] == 2.0 * max(finite)
        assert summary["skipped"] == 0  # skipped counts held-out scenarios only
        assert len(reports) == 5

    def test_a_calibration_corpus_with_no_finite_ratio_raises(self, monkeypatch, capsys):
        cal_seed = _mix_seed(13, "calibration")
        _tiny_weights_where(monkeypatch, lambda seed, i: seed == cal_seed)
        prof = catalog_profiles("T1.1")[0]
        with pytest.raises(InfiniteConstant):
            run_verify(prof, "random-steps", 13, n_cal=3, n_eval=5)
        argv = ["verify", "--tag", "T1.1", "--seed", "13", "--n-cal", "3", "--n-eval", "2"]
        assert main(argv) == 2
        assert "InfiniteConstant" in capsys.readouterr().err

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


@pytest.mark.parametrize(
    "lhs, rhs, ratio",
    [
        ([1.0, 3.0], [2.0, 4.0], 0.75),
        ([1e-16, 1.0], [0.0, 4.0], 0.25),  # at most 1e-15 over rhs = 0 is ignored
        ([1e-14, 1.0], [0.0, 4.0], math.inf),
        ([0.0, 0.0], [0.0, 0.0], 0.0),
    ],
)
def test_the_domination_checks_share_one_cellwise_ratio_rule(lhs, rhs, ratio):
    assert H._max_cell_ratio(np.array(lhs), np.array(rhs)) == ratio


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
    def test_power_weights_chain(self, fam64):
        prof = catalog_profiles("C1.4")[0]
        for item in corpus(9, "power-weights", count=3):
            res = small_exponent_chain_check(item.weight_vector(), prof, fam64)
            assert res["finite"]
            assert res["within_factor_two"]
            assert res["pair_constant"] <= res["bound_chain"] * (1 + 1e-9)


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
