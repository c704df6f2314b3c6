"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and runtime budget is pinned here; nothing is
deferred to later calibration beyond the in-protocol calibrate-then-hold-out
bounds, whose margins are fixed at 2x.
"""

import math
import time

import numpy as np
import pytest

from bifrac import (
    Cube,
    GridFunction,
    GridSpec,
    WeightVector,
    all_intervals,
    ap_constant,
    apq_constant,
    bi_frac_at,
    small_exponent_chain_check,
    corpus,
    cz_decompose,
    dilate_item,
    frac_int_at,
    frac_maximal,
    iida_constant,
    locate_shifted_dyadic,
    maximal,
    multi_maximal,
    multiple_apq_constant,
    nested_pairs,
    p_maximal,
    two_weight_constant,
    weighted_bilinear_maximal,
)
from bifrac.families import default_family
from bifrac.harness import (
    HARNESS_GRID,
    HARNESS_GRID_2D,
    HARNESS_Q0,
    HARNESS_Q0_2D,
    HARNESS_SPEC,
    HARNESS_SPEC_2D,
    SplitMix64,
    TAGS,
    _item_ratio,
    _mix_seed,
    catalog_profiles,
    check_sparse_invariants,
    domination_ratio,
    evaluate_inequality_item,
    local_part_ratio,
)
from bifrac.weights import conjugate


def _report(num, name, detail, elapsed, budget):
    print(f"ACCEPTANCE {num} PASS {name}: {detail} ({elapsed:.1f}s < {budget}s)")


@pytest.fixture(scope="module")
def fam64():
    return default_family(HARNESS_SPEC)


@pytest.fixture(scope="module")
def pairs64(fam64):
    return nested_pairs(fam64)


@pytest.fixture(scope="module")
def fam32():
    return all_intervals(GridSpec(1, 4.0, 32))


def test_c01_one_third_trick():
    budget = 5.0
    t0 = time.monotonic()
    worst = 0.0
    rng = SplitMix64(2024)
    for dim, samples, box_half in ((1, 1000, 4.0), (2, 200, 2.0)):
        for _ in range(samples):
            side = rng.uniform(0.005, box_half / 2)
            corner = tuple(rng.uniform(-box_half, box_half - side) for _ in range(dim))
            q = Cube(corner, side)
            _, qt = locate_shifted_dyadic(q)
            assert qt.contains_cube(q, tol=1e-9 * max(1.0, side))
            ratio = qt.side / side
            assert ratio <= 6.0 * (1 + 1e-9)
            worst = max(worst, ratio)
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(1, "one-third trick", f"1000+200 cubes contained, max side ratio {worst:.4f} <= 6", elapsed, budget)


def test_c02_sparse_decomposition():
    budget = 60.0
    t0 = time.monotonic()
    checked = 0
    nontrivial = 0
    for seed in range(25):
        for kind in ("spikes", "random-steps"):
            for item in corpus(seed, kind, count=2):
                fam = cz_decompose(item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
                fails = check_sparse_invariants(fam)
                assert not fails, (item.item_id, fails)
                checked += 1
                nontrivial += bool(fam.levels)
    assert checked == 100
    checked2d = 0
    for seed in range(10):
        for item in corpus(seed, "spikes", spec=HARNESS_SPEC_2D, count=2):
            fam = cz_decompose(
                item.f, item.g, 2.0, 2.0, HARNESS_Q0_2D, HARNESS_GRID_2D
            )
            fails = check_sparse_invariants(fam)
            assert not fails, (item.item_id, fails)
            checked2d += 1
    assert checked2d == 20
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(
        2,
        "stopping-time invariants",
        f"100 pairs at n=1 N=64 ({nontrivial} with selections) + 20 at n=2 N=32, zero failures",
        elapsed,
        budget,
    )


def test_c03_power_scaling_identity(fam32):
    budget = 5.0
    t0 = time.monotonic()
    from bifrac import power_scaling_check

    spec = GridSpec(1, 4.0, 32)
    rng = SplitMix64(31)
    worst = 0.0
    for _ in range(100):
        arr = np.array([rng.uniform(0.05, 2.0) for _ in range(32)])
        f = GridFunction(spec, arr, nonnegative=True)
        q = rng.uniform(2.0, 6.0)
        p0 = q + rng.uniform(0.0, 4.0)
        ell = rng.uniform(1.05, q - 0.5)
        lhs, rhs = power_scaling_check(f, p0, q, ell, fam32)
        rel = abs(lhs - rhs) / rhs
        worst = max(worst, rel)
        assert rel <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(3, "power scaling identity", f"100 random cases, max rel discrepancy {worst:.2e} <= 1e-12", elapsed, budget)


def test_c04_quadrature_oracles():
    budget = 30.0
    t0 = time.monotonic()
    results = []
    for n_cells, tol in ((256, 0.02), (1024, 0.005)):
        spec = GridSpec(1, 4.0, n_cells)
        chi_sym = GridFunction.indicator(spec, Cube((-1.0,), 2.0))
        bi_err = abs(bi_frac_at(chi_sym, chi_sym, 0.5, 0.0) - 4.0) / 4.0
        chi = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        i0_err = abs(frac_int_at(chi, 0.5, 0.0) - 2.0) / 2.0
        i2_exact = 2.0 * (math.sqrt(2.0) - 1.0)
        i2_err = abs(frac_int_at(chi, 0.5, 2.0) - i2_exact) / i2_exact
        for err in (bi_err, i0_err, i2_err):
            assert err < tol
        results.append((n_cells, bi_err, i0_err, i2_err))
    # first-order convergence on the bilinear sum: error shrinks with h
    assert results[0][1] / results[1][1] >= 2.0
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    detail = "; ".join(
        f"N={n}: BI {b:.2e}, I(0) {i0:.2e}, I(2) {i2:.2e}" for n, b, i0, i2 in results
    )
    _report(4, "quadrature oracles", detail, elapsed, budget)


def test_c05_maximal_oracle_equivalence(fam32):
    budget = 30.0
    t0 = time.monotonic()
    spec = GridSpec(1, 4.0, 32)
    rng = np.random.default_rng(55)
    f = GridFunction(spec, rng.uniform(0.0, 2.0, 32), nonnegative=True)
    g = GridFunction(spec, rng.uniform(0.0, 2.0, 32), nonnegative=True)
    w1 = GridFunction(spec, rng.uniform(0.5, 2.0, 32), nonnegative=True)
    w2 = GridFunction(spec, rng.uniform(0.5, 2.0, 32), nonnegative=True)
    h = spec.h
    alpha, p, r1, r2, r, s, qexp = 0.5, 2.5, 1.5, 2.5, 2.0, 2.0, 3.0
    nu = GridFunction(spec, w1.samples * w2.samples, nonnegative=True)

    def brute_avg(fn, i, j, meas, pw):
        total = np.sum(np.abs(fn.samples[i:j]) ** pw) * h
        return (total / meas) ** (1.0 / pw)

    def brute_m3q(i, j, side):
        lo, hi = max(0, i - (j - i)), min(32, j + (j - i))
        meas3 = (3.0 * side) ** 1
        fi = np.sum(np.abs(f.samples[lo:hi]) ** r) * h
        gi = np.sum(np.abs(g.samples[lo:hi]) ** s) * h
        return (fi / meas3) ** (1.0 / r) * (gi / meas3) ** (1.0 / s)

    mids = spec.midpoints()
    ops = {
        "M": (maximal(f, fam32), lambda i, j, Q: brute_avg(f, i, j, Q.measure, 1.0)),
        "M_alpha": (
            frac_maximal(f, alpha, fam32),
            lambda i, j, Q: Q.side ** alpha * brute_avg(f, i, j, Q.measure, 1.0),
        ),
        "M^(p)": (p_maximal(f, p, fam32), lambda i, j, Q: brute_avg(f, i, j, Q.measure, p)),
        "M_multi": (
            multi_maximal(f, g, alpha, r1, r2, fam32),
            lambda i, j, Q: Q.side ** alpha
            * brute_avg(f, i, j, Q.measure, r1)
            * brute_avg(g, i, j, Q.measure, r2),
        ),
        "M_weighted": (
            weighted_bilinear_maximal(f, g, w1, w2, alpha, r, s, qexp, fam32),
            lambda i, j, Q: Q.side ** alpha
            * brute_m3q(i, j, Q.side)
            * brute_avg(nu, i, j, Q.measure, qexp),
        ),
    }
    for name, (got, value_fn) in ops.items():
        want = np.zeros(32)
        for c in range(32):
            best = -np.inf
            for k, Q in enumerate(fam32.cubes):
                i, j = int(fam32.lo[k, 0]), int(fam32.hi[k, 0])
                if not (Q.corner[0] <= mids[c] < Q.corner[0] + Q.side):
                    continue
                best = max(best, value_fn(i, j, Q))
            want[c] = best
        assert np.array_equal(got.samples, want), name
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(5, "maximal oracle equivalence", "M, M_alpha, M^(p), M_multi, M_weighted bit-equal to enumeration", elapsed, budget)


def test_c06_weight_constants():
    budget = 30.0
    t0 = time.monotonic()
    spec = GridSpec(1, 4.0, 32)
    fam = all_intervals(spec)
    pairs = nested_pairs(fam)
    one = GridFunction.constant(spec, 1.0)
    ones = WeightVector(one, one)
    # unit weights: every constant is exactly 1
    assert ap_constant(one, 1.0, fam).value == 1.0
    assert ap_constant(one, 2.0, fam).value == 1.0
    assert apq_constant(one, 2.0, 3.0, fam).value == 1.0
    assert multiple_apq_constant(ones, 2.0, 2.0, 3.0, fam).value == 1.0
    assert iida_constant(ones, 4.0, 2.0, 2.0, 2.0, pairs).value == 1.0
    assert two_weight_constant(one, ones, 4.0, 2.0, 2.0, 2.0, pairs).value == 1.0
    # the second two-weight quantity carries the outer-measure factor
    r0 = 2.0
    biggest = max(Q.measure for Q in fam.cubes)
    got = two_weight_constant(one, ones, 4.0, 2.0, 2.0, 2.0, pairs, r0=r0).value
    assert got == pytest.approx(biggest ** (1.0 / r0), rel=1e-14)

    # step weights match exhaustive nested-pair enumeration
    rng = np.random.default_rng(66)
    w1 = GridFunction(spec, rng.uniform(0.4, 2.0, 32))
    w2 = GridFunction(spec, rng.uniform(0.4, 2.0, 32))
    v = GridFunction(spec, rng.uniform(0.4, 2.0, 32))
    wv = WeightVector(w1, w2)
    q0, q, p1, p2 = 4.0, 2.0, 2.0, 3.0
    cp1, cp2 = conjugate(p1), conjugate(p2)
    h = spec.h
    nu = w1.samples * w2.samples

    def avg_pow(arr, i, j, e):
        return (np.sum(np.power(arr[i:j], e)) * h) / ((j - i) * h)

    best_iida = 0.0
    best_two = 0.0
    best_two_r0 = 0.0
    for io in range(32):
        for jo in range(io + 1, 33):
            d1 = avg_pow(w1.samples, io, jo, -cp1) ** (1.0 / cp1)
            d2 = avg_pow(w2.samples, io, jo, -cp2) ** (1.0 / cp2)
            meas_o = (jo - io) * h
            for ii in range(io, jo):
                for ji in range(ii + 1, jo + 1):
                    ratio = (((ji - ii) * h) / meas_o) ** (1.0 / q0)
                    lead = avg_pow(nu, ii, ji, q) ** (1.0 / q)
                    vlead = avg_pow(v.samples, ii, ji, q) ** (1.0 / q)
                    best_iida = max(best_iida, ratio * lead * d1 * d2)
                    tw = ratio * vlead * d1 * d2
                    best_two = max(best_two, tw)
                    best_two_r0 = max(best_two_r0, tw * meas_o ** (1.0 / r0))
    assert iida_constant(wv, q0, q, p1, p2, pairs).value == pytest.approx(
        best_iida, rel=1e-12
    )
    assert two_weight_constant(v, wv, q0, q, p1, p2, pairs).value == pytest.approx(
        best_two, rel=1e-12
    )
    assert two_weight_constant(v, wv, q0, q, p1, p2, pairs, r0=r0).value == pytest.approx(
        best_two_r0, rel=1e-12
    )

    # homogeneity invariances
    c = 5.7
    assert ap_constant(w1 * c, 2.0, fam).value == pytest.approx(
        ap_constant(w1, 2.0, fam).value, rel=1e-12
    )
    assert multiple_apq_constant(
        WeightVector(w1 * c, w2 * (1.0 / c)), p1, p2, q, fam
    ).value == pytest.approx(multiple_apq_constant(wv, p1, p2, q, fam).value, rel=1e-12)
    assert iida_constant(
        WeightVector(w1 * c, w2 * (1.0 / c)), q0, q, p1, p2, pairs
    ).value == pytest.approx(best_iida, rel=1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(6, "weight constants", "unit weights exact, step weights match pair enumeration, homogeneity to 1e-12", elapsed, budget)


def test_c07_pointwise_domination(fam64, pairs64):
    budget = 120.0
    t0 = time.monotonic()
    prof11 = catalog_profiles("T1.1")[0]
    prof42 = catalog_profiles("T4.2")[0]

    def item_for(seed):
        kind = "spikes" if seed % 2 == 0 else "random-steps"
        return corpus(seed, kind, count=1)[0]

    checks = {
        "local-sum": lambda it: local_part_ratio(it),
        "weighted-vs-product": lambda it: domination_ratio(prof11, it, "weighted", fam64, pairs64),
        "small-exponent": lambda it: domination_ratio(prof11, it, "small-exponent", fam64, pairs64),
        "two-weight": lambda it: domination_ratio(prof42, it, "two-weight", fam64, pairs64),
        "two-weight-r0": lambda it: domination_ratio(prof42, it, "two-weight-decay", fam64, pairs64),
    }
    cal_items = [item_for(_mix_seed(s, "domcal") % 100000) for s in range(20)]
    hold_items = [item_for(1000 + s) for s in range(50)]
    details = []
    for name, fn in checks.items():
        c_cal = max(fn(it) for it in cal_items)
        bound = 2.0 * c_cal
        failures = 0
        worst = 0.0
        for it in hold_items:
            ratio = fn(it)
            assert math.isfinite(ratio)
            worst = max(worst, ratio)
            failures += ratio > bound
        assert failures == 0, name
        details.append(f"{name} {worst:.3f}<={bound:.3f}")
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(7, "pointwise domination", "; ".join(details), elapsed, budget)


def test_c08_inequality_ratio_suites(fam64, pairs64):
    budget = 600.0
    t0 = time.monotonic()
    seed = 101
    summary = []
    for tag in TAGS:
        for prof in catalog_profiles(tag):
            cal_items = corpus(_mix_seed(seed, "calibration"), "random-steps", count=10)
            c_cal = max(_item_ratio(prof, it, fam64, pairs64)[2] for it in cal_items)
            bound = 2.0 * c_cal
            items = corpus(seed, "random-steps", count=30)
            worst = 0.0
            for it in items:
                _, _, ratio, _ = _item_ratio(prof, it, fam64, pairs64)
                assert math.isfinite(ratio), (tag, it.item_id)
                assert ratio <= bound, (tag, it.item_id, ratio, bound)
                worst = max(worst, ratio)
            summary.append(f"{tag}:{worst / bound:.2f}")

    # ratio invariance under (f, g) -> (c f, g)
    import dataclasses

    for tag in TAGS:
        prof = catalog_profiles(tag)[0]
        item = corpus(7, "random-steps", count=1)[0]
        _, _, ratio, _ = _item_ratio(prof, item, fam64, pairs64)
        scaled = dataclasses.replace(item, f=item.f * 313.7)
        _, _, ratio2, _ = _item_ratio(prof, scaled, fam64, pairs64)
        assert ratio2 == pytest.approx(ratio, rel=1e-10), tag

    # dyadic dilation drift for the first inequality family
    prof = catalog_profiles("T1.1")[0]
    for item in corpus(17, "random-steps", count=3, support=(0.25, 1.0)):
        ratios = []
        for j in (0, 1, 2):
            it = dilate_item(item, j) if j else item
            lhs, rhs, const = evaluate_inequality_item(prof, it, fam64, pairs64)
            ratios.append(lhs / (const.value * rhs))
        drift = max(abs(r - ratios[0]) / ratios[0] for r in ratios[1:])
        assert drift <= 0.15, (item.item_id, ratios)

    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(
        8,
        "inequality ratio suites",
        f"21 profiles x 30 items all within bounds (worst/bound: {' '.join(summary)}); scale-invariance 1e-10; dilation drift <= 15%",
        elapsed,
        budget,
    )


def test_c09_small_exponent_mechanism(fam64):
    budget = 60.0
    t0 = time.monotonic()
    prof = catalog_profiles("C1.4")[0]
    checked = 0
    for seed in (3, 9, 27):
        for item in corpus(seed, "power-weights", count=3):
            res = small_exponent_chain_check(item.weight_vector(), prof, fam64)
            assert res["finite"]
            assert res["within_factor_two"], res
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(
        9,
        "small-exponent mechanism",
        f"{checked} power-weight vectors: pair constant within 2x of the probe-driven chain",
        elapsed,
        budget,
    )


def test_c10_determinism(tmp_path):
    budget = 120.0
    t0 = time.monotonic()
    from bifrac.cli import main

    outs = []
    for run in ("a", "b"):
        csv = tmp_path / f"det_{run}.csv"
        js = tmp_path / f"det_{run}.json"
        rc = main(
            [
                "verify",
                "--tag",
                "T1.1",
                "--kind",
                "random-steps",
                "--seed",
                "7",
                "--out-csv",
                str(csv),
                "--out-json",
                str(js),
            ]
        )
        assert rc == 0
        outs.append((csv.read_bytes(), js.read_bytes()))
    assert outs[0] == outs[1]
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(10, "byte-identical verify", "same seed twice: identical CSV and JSON", elapsed, budget)
