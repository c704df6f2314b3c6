"""Stopping-time decomposition against a full-enumeration oracle."""

import numpy as np
import pytest

from bifrac import (
    Cube,
    DyadicGrid,
    GridFunction,
    GridSpec,
    LevelAbsent,
    NonNegativityViolation,
    NotInGrid,
    cz_decompose,
    level_union_measure,
)
from bifrac.harness import HARNESS_GRID, HARNESS_Q0, HARNESS_SPEC, check_sparse_invariants, corpus


def oracle_blocks(spec, q0):
    """All dyadic subcubes of q0 down to single cells: (corner_idx, width)."""
    h = spec.h
    lo = tuple(int(round((c + spec.half_width) / h)) for c in q0.corner)
    w = int(round(q0.side / h))
    out = []
    queue = [(lo, w)]
    while queue:
        cur, width = queue.pop(0)
        out.append((cur, width))
        if width > 1:
            half = width // 2
            from itertools import product

            for offs in product((0, half), repeat=spec.dim):
                queue.append((tuple(a + o for a, o in zip(cur, offs)), half))
    return out


def oracle_m3q(f, g, corner_idx, width, r, s):
    """Direct evaluation of the tripled-cube bilinear average."""
    spec = f.spec
    n = spec.cells_per_axis
    h = spec.h
    lo = [i - width for i in corner_idx]
    hi = [i + 2 * width for i in corner_idx]
    sl = tuple(slice(max(0, a), min(n, b)) for a, b in zip(lo, hi))
    meas3 = (3.0 * width * h) ** spec.dim
    fi = np.sum(np.abs(f.samples[sl]) ** r) * h ** spec.dim
    gi = np.sum(np.abs(g.samples[sl]) ** s) * h ** spec.dim
    return (fi / meas3) ** (1.0 / r) * (gi / meas3) ** (1.0 / s)


def oracle_selected(f, g, q0, r, s, a, level):
    """Maximal cubes with m > a^level, by exhaustive top-down search."""
    spec = f.spec
    blocks = oracle_blocks(spec, q0)
    mvals = {b: oracle_m3q(f, g, b[0], b[1], r, s) for b in blocks}
    thr = a ** level
    chosen = []

    def contained(inner, outer):
        (li, wi), (lo_, wo) = inner, outer
        return all(o <= i and i + wi <= o + wo for i, o in zip(li, lo_))

    for b in sorted(blocks, key=lambda b: -b[1]):
        if mvals[b] > thr and not any(contained(b, c) for c in chosen):
            chosen.append(b)
    return set(chosen)


def family_selected_set(fam, level, spec):
    out = set()
    for sc in fam.levels.get(level, ()):
        h = spec.h
        lo = tuple(int(round((c + spec.half_width) / h)) for c in sc.cube.corner)
        out.add((lo, int(round(sc.cube.side / h))))
    return out


class TestCzDecompose:
    def test_flat_selects_nothing(self):
        f = GridFunction.indicator(HARNESS_SPEC, HARNESS_Q0)
        fam = cz_decompose(f, f, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
        assert not fam.levels
        assert len(fam.e0_cells) == len(fam.root_cells)

    def test_needs_nonnegative(self):
        arr = np.zeros(HARNESS_SPEC.shape)
        arr[3] = -1.0
        f = GridFunction(HARNESS_SPEC, arr)
        g = GridFunction.constant(HARNESS_SPEC, 1.0)
        with pytest.raises(NonNegativityViolation):
            cz_decompose(f, g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)

    def test_root_must_be_in_grid(self):
        f = GridFunction.constant(HARNESS_SPEC, 1.0)
        with pytest.raises(NotInGrid):
            cz_decompose(f, f, 2.0, 2.0, Cube((0.25,), 1.5), HARNESS_GRID)

    def test_base_constant_floor(self):
        f = GridFunction.constant(HARNESS_SPEC, 1.0)
        with pytest.raises(ValueError):
            cz_decompose(f, f, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID, a=3.0)

    def test_single_spike_matches_oracle(self):
        spec = GridSpec(1, 4.0, 256)
        q0 = Cube((0.0,), 4.0)
        grid = DyadicGrid((0.0,))
        arr = np.zeros(256)
        arr[160] = 20.0
        f = GridFunction(spec, arr, nonnegative=True)
        fam = cz_decompose(f, f, 2.0, 2.0, q0, grid)
        assert fam.max_level >= 2
        for level in fam.levels:
            assert family_selected_set(fam, level, spec) == oracle_selected(
                f, f, q0, 2.0, 2.0, 8.0, level
            )
        assert not check_sparse_invariants(fam)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matches_oracle(self, seed):
        items = corpus(seed, "spikes", count=1) + corpus(seed, "random-steps", count=1)
        for item in items:
            fam = cz_decompose(item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
            assert not check_sparse_invariants(fam)
            levels = set(fam.levels)
            for level in levels:
                assert family_selected_set(fam, level, HARNESS_SPEC) == oracle_selected(
                    item.f, item.g, HARNESS_Q0, 2.0, 2.0, 8.0, level
                )
            # no phantom levels
            k = fam.max_level + 1
            assert not oracle_selected(item.f, item.g, HARNESS_Q0, 2.0, 2.0, 8.0, k)

    def test_scaling_monotonicity(self):
        # enlarging f can only grow the selected union at each level
        item = corpus(11, "spikes", count=1)[0]
        base = cz_decompose(item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
        bigger = cz_decompose(
            item.f * 1.7, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID
        )
        for k in base.levels:
            small = set(base.level_cells(k).tolist())
            large = set(bigger.level_cells(k).tolist())
            assert small <= large


class TestLevelUnionMeasure:
    def test_no_next_level_gives_zero(self):
        item = corpus(4, "spikes", count=1)[0]
        fam = cz_decompose(item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
        if not fam.levels:
            pytest.skip("flat item")
        top = fam.max_level
        vals = level_union_measure(fam, top)
        assert all(v == 0.0 for v in vals.values())

    def test_level_absent(self):
        f = GridFunction.indicator(HARNESS_SPEC, HARNESS_Q0)
        fam = cz_decompose(f, f, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
        with pytest.raises(LevelAbsent):
            level_union_measure(fam, 1)

    def test_nested_ancestors(self):
        spec = GridSpec(1, 4.0, 256)
        q0 = Cube((0.0,), 4.0)
        arr = np.zeros(256)
        arr[160] = 20.0
        f = GridFunction(spec, arr, nonnegative=True)
        fam = cz_decompose(f, f, 2.0, 2.0, q0, DyadicGrid((0.0,)))
        vals = level_union_measure(fam, 1)
        cell = spec.h ** spec.dim
        for sc in fam.levels[1]:
            expect = (sc.cell_count - sc.e_count) * cell
            assert vals[sc.cube] == pytest.approx(expect, abs=0.0)

    def test_half_measure_bound(self):
        for seed in range(8):
            for item in corpus(seed, "spikes", count=2):
                fam = cz_decompose(item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
                for k in fam.levels:
                    for cube, inter in level_union_measure(fam, k).items():
                        assert inter <= cube.measure / 2.0 + 1e-15


class TestSparseErrors:
    def test_conjugate_mismatch(self):
        f = GridFunction.constant(HARNESS_SPEC, 1.0)
        from bifrac import ConjugateMismatch

        with pytest.raises(ConjugateMismatch):
            cz_decompose(f, f, 2.0, 2.5, HARNESS_Q0, HARNESS_GRID)

    def test_spec_mismatch(self):
        from bifrac import SpecMismatch

        f = GridFunction.constant(HARNESS_SPEC, 1.0)
        g = GridFunction.constant(GridSpec(1, 4.0, 32), 1.0)
        with pytest.raises(SpecMismatch):
            cz_decompose(f, g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)


def test_invariants_at_coarser_lattice():
    # same invariants hold on the 32-cell lattice
    spec = GridSpec(1, 4.0, 32)
    q0 = Cube((0.0,), 4.0)
    grid = DyadicGrid((0.0,))
    count = 0
    for seed in range(5):
        for kind in ("spikes", "random-steps"):
            for item in corpus(seed, kind, spec=spec, count=2):
                fam = cz_decompose(item.f, item.g, 2.0, 2.0, q0, grid)
                assert not check_sparse_invariants(fam), item.item_id
                count += 1
    assert count == 20
