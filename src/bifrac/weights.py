"""Weight-class constants as maxima over finite cube and nested-pair families.

Every constant is the discrete analogue of a supremum; maxima run over
explicit families in a deterministic order (corner, then side), so the
first attaining cube is the canonical witness.  Averages of negative
powers of step weights are exact; zero samples are tolerated only in
the sense of a +inf sentinel, strictly negative ones are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveWeight, POutOfRange, SpecMismatch
from .families import CubeFamily, NestedPairs
from .geometry import Cube
from .lattice import GridFunction, box_power_integral, overlap_integrals


@dataclass(frozen=True)
class WeightVector:
    """A pair of strictly positive weights, optionally with a second-kind v."""

    w1: GridFunction
    w2: GridFunction
    v: GridFunction | None = None

    def __post_init__(self):
        for name, w in (("w1", self.w1), ("w2", self.w2), ("v", self.v)):
            if w is None:
                continue
            if float(w.samples.min()) <= 0.0:
                raise NonPositiveWeight(f"{name} has a non-positive sample")
        if self.w2.spec != self.w1.spec or (
            self.v is not None and self.v.spec != self.w1.spec
        ):
            raise SpecMismatch("weight components live on different specs")
        nu = GridFunction(self.w1.spec, self.w1.samples * self.w2.samples, nonnegative=True)
        object.__setattr__(self, "_nu", nu)

    @property
    def nu(self) -> GridFunction:
        """Product weight w1 * w2."""
        return self._nu


@dataclass(frozen=True)
class ConstantReport:
    """Value of a discrete weight constant plus its attaining witness."""

    value: float
    witness: Cube | tuple[Cube, Cube]
    family_size: int


def conjugate(p: float) -> float:
    return p / (p - 1.0)


def _family_power_averages(w: GridFunction, expo: float, family: CubeFamily) -> np.ndarray:
    """(1/|Q|) \\int_Q w^expo per family cube, exact for step weights.

    Aligned cubes read prefix sums (summed-area tables in 2D); the
    integrand is nonnegative, so a difference that rounds below zero is
    clamped to 0.  When the sums overflow, which nonnegative prefix sums
    show in their last entry, aligned cubes take engine window sums
    instead (+inf where a cube's own sum overflows).  A zero sample raised
    to a negative power yields +inf; cubes touching such a cell report the
    +inf sentinel (prefix sums would otherwise turn it into nan).
    """
    spec = w.spec
    voxel = spec.h ** spec.dim
    ali = family.aligned
    lo, hi = family.lo[ali], family.hi[ali]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pw = np.power(w.samples, expo, dtype=np.float64)
        bad = ~np.isfinite(pw)
        pw_clean = np.where(bad, 0.0, pw)
        if spec.dim == 1:
            prefix = np.concatenate(([0.0], np.cumsum(pw_clean))) * voxel
            bad_prefix = np.concatenate(([0], np.cumsum(bad.astype(np.int64))))
            total = prefix[hi[:, 0]] - prefix[lo[:, 0]]
            nbad = bad_prefix[hi[:, 0]] - bad_prefix[lo[:, 0]]
        else:
            size = (spec.cells_per_axis + 1,) * 2
            prefix = np.zeros(size)
            np.cumsum(np.cumsum(pw_clean, axis=0), axis=1, out=prefix[1:, 1:])
            bad_sat = np.zeros(size, dtype=np.int64)
            np.cumsum(np.cumsum(bad.astype(np.int64), axis=0), axis=1, out=bad_sat[1:, 1:])
            (a0, a1), (b0, b1) = lo.T, hi.T
            total = (prefix[b0, b1] - prefix[a0, b1] - prefix[b0, a1] + prefix[a0, a1]) * voxel
            nbad = bad_sat[b0, b1] - bad_sat[a0, b1] - bad_sat[b0, a1] + bad_sat[a0, a1]
        if not np.isfinite(prefix.flat[-1]):
            # an overflowed running sum differences to inf - inf: sum each cube's own cells
            total = family.boxes.sums(pw_clean)[ali] * voxel
    vals = np.empty(family.size)
    vals[ali] = np.where(nbad > 0, np.inf, np.maximum(total, 0.0) / family.measures[ali])
    shifted = family.shifted
    vals[shifted] = family.shifted_integrals(pw) / family.measures[shifted]
    return vals


def _family_minima(w: GridFunction, family: CubeFamily) -> np.ndarray:
    """min over each cube of the weight: over every cell the cube touches."""
    return family.touch.minima(w.samples)


def _check_positive(*ws: GridFunction):
    for w in ws:
        if float(w.samples.min()) < 0.0:
            raise NonPositiveWeight("weight has a negative sample")


def _sanitize(vals: np.ndarray) -> np.ndarray:
    # 0 * inf from a weight vanishing on a whole cube: not in the class
    return np.where(np.isnan(vals), np.inf, vals)


def _argmax_report(vals: np.ndarray, family: CubeFamily) -> ConstantReport:
    vals = _sanitize(vals)
    k = int(np.argmax(vals))
    return ConstantReport(float(vals[k]), family.cube(k), family.size)


def ap_constant(w: GridFunction, p: float, family: CubeFamily) -> ConstantReport:
    """Muckenhoupt constant sup_Q (avg_Q w)(avg_Q w^{1-p'})^{p-1}.

    For p = 1 the ratio form sup_Q (avg_Q w) / (min_Q w) is used.
    """
    if p < 1.0:
        raise POutOfRange(f"p must be at least 1, got {p}")
    _check_positive(w)
    family.require_nonempty()
    avg1 = _family_power_averages(w, 1.0, family)
    if p == 1.0:
        mins = _family_minima(w, family)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = avg1 / mins
    else:
        pp = conjugate(p)
        dual = _family_power_averages(w, 1.0 - pp, family)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = avg1 * dual ** (p - 1.0)
    return _argmax_report(vals, family)


def apq_constant(w: GridFunction, p: float, q: float, family: CubeFamily) -> ConstantReport:
    """sup_Q (avg_Q w^q)^{1/q} (avg_Q w^{-p'})^{1/p'} for 1 < p < q."""
    if not (1.0 < p < q):
        raise POutOfRange(f"need 1 < p < q, got p={p}, q={q}")
    _check_positive(w)
    family.require_nonempty()
    pp = conjugate(p)
    with np.errstate(invalid="ignore"):
        lead = _family_power_averages(w, q, family) ** (1.0 / q)
        dual = _family_power_averages(w, -pp, family) ** (1.0 / pp)
        return _argmax_report(lead * dual, family)


def multiple_apq_constant(
    wv: WeightVector, p1: float, p2: float, q: float, family: CubeFamily
) -> ConstantReport:
    """sup_Q (avg_Q nu^q)^{1/q} prod_i (avg_Q w_i^{-p_i'})^{1/p_i'}.

    A p_i = 1 component contributes (min_Q w_i)^{-1}.
    """
    if p1 < 1.0 or p2 < 1.0 or q <= 0.0:
        raise POutOfRange("need p_i >= 1 and q > 0")
    family.require_nonempty()
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = _family_power_averages(wv.nu, q, family) ** (1.0 / q)
        for p, w in ((p1, wv.w1), (p2, wv.w2)):
            if p == 1.0:
                vals = vals / _family_minima(w, family)
            else:
                pp = conjugate(p)
                vals = vals * _family_power_averages(w, -pp, family) ** (1.0 / pp)
    return _argmax_report(vals, family)


def iida_constant(
    wv: WeightVector,
    q0: float,
    q: float,
    p1: float,
    p2: float,
    pairs: NestedPairs,
) -> ConstantReport:
    """Two-cube constant over nested pairs Q ⊆ Q':

    (|Q|/|Q'|)^{1/q0} (avg_Q nu^q)^{1/q} prod_i (avg_{Q'} w_i^{-p_i'})^{1/p_i'}.
    """
    return _pair_constant(wv.nu, wv, q0, q, p1, p2, pairs, None)


def two_weight_constant(
    v: GridFunction,
    wv: WeightVector,
    q0: float,
    q: float,
    p1: float,
    p2: float,
    pairs: NestedPairs,
    r0: float | None = None,
) -> ConstantReport:
    """Two-weight pair constant; v replaces the product weight in the lead factor.

    With r0 given, the extra factor |Q'|^{1/r0} is inserted.
    """
    return _pair_constant(v, wv, q0, q, p1, p2, pairs, r0)


def _pair_constant(lead, wv, q0, q, p1, p2, pairs, r0) -> ConstantReport:
    if p1 <= 1.0 or p2 <= 1.0:
        raise POutOfRange("pair constants need p_i > 1")
    if q0 <= 0.0 or q <= 0.0:
        raise POutOfRange("need q0 > 0 and q > 0")
    _check_positive(lead)
    pairs.require_nonempty()
    fam = pairs.family
    meas = fam.measures
    with np.errstate(invalid="ignore"):
        inner_lead = _family_power_averages(lead, q, fam) ** (1.0 / q)
        cp1, cp2 = conjugate(p1), conjugate(p2)
        outer_1 = _family_power_averages(wv.w1, -cp1, fam) ** (1.0 / cp1)
        outer_2 = _family_power_averages(wv.w2, -cp2, fam) ** (1.0 / cp2)
        # (|Q|/|Q'|)^{1/q0} = |Q|^{1/q0} |Q'|^{-1/q0}, so the max over pairs
        # is the max over Q' of its outer factor times its best inner factor
        inner = _sanitize(meas ** (1.0 / q0) * inner_lead)
        best = pairs.inner_max(inner)
        outer = meas ** (-1.0 / q0) * outer_1 * outer_2
        if r0 is not None:
            outer = outer * meas ** (1.0 / r0)
        K = int(np.argmax(np.where(fam.aligned, _sanitize(outer * best), -np.inf)))
        inside = np.all(fam.lo >= fam.lo[K], axis=1) & np.all(fam.hi <= fam.hi[K], axis=1)
        Q = int(np.argmax(fam.aligned & inside & (inner == best[K])))
        # the witness pair's value, by the pair formula factor by factor
        value = (meas[Q] / meas[K]) ** (1.0 / q0) * inner_lead[Q] * outer_1[K] * outer_2[K]
        if r0 is not None:
            value = value * meas[K] ** (1.0 / r0)
    return ConstantReport(float(_sanitize(value)), (fam.cube(Q), fam.cube(K)), pairs.size)


def reverse_holder_probe(w: GridFunction, epsilon: float, family: CubeFamily) -> float:
    """Smallest C with (avg_Q w^{1+eps})^{1/(1+eps)} <= C avg_Q w on the family."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    _check_positive(w)
    family.require_nonempty()
    hi = _family_power_averages(w, 1.0 + epsilon, family) ** (1.0 / (1.0 + epsilon))
    lo = _family_power_averages(w, 1.0, family)
    return float(np.max(hi / lo))


def iida_pair_value(
    wv: WeightVector, q0: float, q: float, p1: float, p2: float, Q: Cube, Qp: Cube
) -> float:
    """Integrand of iida_constant at one nested pair (witness re-evaluation)."""
    cp1, cp2 = conjugate(p1), conjugate(p2)
    with np.errstate(divide="ignore", over="ignore"):
        nu_q = box_power_integral(wv.nu, Q.corner, Q.side, q) / Q.measure
        d1 = _cube_power_integral(wv.w1, -cp1, Qp) / Qp.measure
        d2 = _cube_power_integral(wv.w2, -cp2, Qp) / Qp.measure
    value = (
        (Q.measure / Qp.measure) ** (1.0 / q0)
        * nu_q ** (1.0 / q)
        * d1 ** (1.0 / cp1)
        * d2 ** (1.0 / cp2)
    )
    return float(_sanitize(value))


def _cube_power_integral(w: GridFunction, expo: float, Q: Cube) -> float:
    """\\int_Q w^expo, with the power raised only on the cells Q touches (one
    more per side, against rounding at the edges).

    A power that overflows on a cell Q overlaps gives +inf, the sentinel of
    _family_power_averages; cells outside Q do not count.
    """
    spec = w.spec
    corner, side = np.array([Q.corner], dtype=np.float64), np.array([Q.side])
    t = (corner[0] + spec.half_width) / spec.h
    first, stop = np.floor(t).astype(np.int64) - 1, np.ceil(t + Q.side / spec.h).astype(np.int64) + 1
    near = tuple(slice(max(a, 0), max(b, 0)) for a, b in zip(first.tolist(), stop.tolist()))
    pw = np.zeros(spec.shape)
    with np.errstate(divide="ignore", over="ignore"):
        pw[near] = np.power(w.samples[near], expo)
    return float(overlap_integrals(spec, pw, corner, side)[0])
