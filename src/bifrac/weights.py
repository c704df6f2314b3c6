"""Weight-class constants as maxima over finite cube and nested-pair families.

Each per-cube value, of every constant and Morrey norm, is one `_cube_values`
product of power averages or minima, where a nan (0 * inf) reads +inf.  A
power average differences a 1D running sum while that sum is finite and
otherwise sums each cube's own cells (`_family_power_averages`); the
averages that sum cells, every one in 2D, take one stacked engine pass per
product.  Maxima run over explicit families in a deterministic order
(corner, then side), so the first attaining cube is the canonical witness.
Averages of negative powers of step weights are exact; zero samples are
tolerated only in the sense of a +inf sentinel, strictly negative ones are
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AverageOverflow, EmptyCubeFamily, NonPositiveWeight, POutOfRange, SpecMismatch
from .families import CubeFamily, NestedPairs
from .geometry import Cube
from .lattice import GridFunction


@dataclass(frozen=True)
class WeightVector:
    """A pair of strictly positive weights."""

    w1: GridFunction
    w2: GridFunction

    def __post_init__(self):
        for name, w in (("w1", self.w1), ("w2", self.w2)):
            if float(w.samples.min()) <= 0.0:
                raise NonPositiveWeight(f"{name} has a non-positive sample")
        if self.w2.spec != self.w1.spec:
            raise SpecMismatch("weight components live on different specs")
        with np.errstate(over="ignore"):
            nu = self.w1.samples * self.w2.samples
        if not np.isfinite(nu).all():
            raise AverageOverflow("the product weight w1 * w2 leaves the float range")
        object.__setattr__(self, "_nu", GridFunction(self.w1.spec, nu, nonnegative=True))

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


def _family_power_averages(family: CubeFamily, powers: list[tuple[GridFunction, float]]) -> list[np.ndarray]:
    """(1/|Q|) \\int_Q w^expo per family cube, for each (w, expo) of powers;
    exact for step weights.

    In 1D, while the running sum of the cells stays finite (no +inf cell, no
    overflow; its last entry shows it), an aligned cube is the difference of
    the running sums at its two ends: the running sum of nonnegative cells
    never decreases, so no difference rounds below 0, but its error is
    relative to the running sum, not to the cube.  Otherwise, and always in
    2D, the averages are one stacked `family.integrals` call over the
    measures, each with the bits of a call of its own, as the maximal
    operators take theirs: an aligned cube adds its own cells (its own
    disjoint engine blocks in 2D), so an all-zero cube reads exactly 0, a
    cube holding a +inf cell (a zero sample raised to a negative power)
    reads +inf, and an overflow reaches only a cube whose own sum overflows.
    """
    out, rest = [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for w, expo in powers:
            pw = np.power(w.samples, expo, dtype=np.float64)
            if family.spec.dim == 1:
                running = np.cumsum(np.concatenate(([0], pw))) * family.spec.h
                if np.isfinite(running[-1]):
                    sums = running[family.hi[:, 0]] - running[family.lo[:, 0]]
                    sums[family.shifted] = family.shifted_integrals(pw)
                    out.append(sums / family.measures)
                    continue
            rest.append(len(out))
            out.append(pw)  # summed below, with the other rows that sum cells
        if rest:
            for i, avg in zip(rest, family.integrals(np.stack([out[i] for i in rest])) / family.measures):
                out[i] = avg
    return out


def _check_positive(*ws: GridFunction):
    for w in ws:
        if float(w.samples.min()) < 0.0:
            raise NonPositiveWeight("weight has a negative sample")


def _dual(w: GridFunction, p: float) -> tuple:
    """The factor (avg_Q w^{-p'})^{1/p'}; at p = 1 its limit, a division by min_Q w."""
    return (w, None, None) if p == 1.0 else (w, -conjugate(p), 1.0 / conjugate(p))


def _cube_values(family: CubeFamily, factors: list[tuple], measure_power: float | None = None) -> tuple:
    """|Q|^measure_power times the factors per family cube, left to right, and
    each factor's array: the one reader of per-cube power averages and minima.
    A factor (w, e, c) is (avg_Q w^e)^c, the power skipped at c = 1; (w, None,
    None) divides by min_Q w over the cells Q touches.  The power averages of
    all factors are one `_family_power_averages` call, so one stacked engine
    pass.  A nan value is 0 * inf, a factor vanishing where another is +inf:
    `_top` and `_sanitize` read +inf.  A weight on another grid spec than the
    family's raises SpecMismatch.
    """
    for w, _, _ in factors:
        if w.spec != family.spec:
            raise SpecMismatch(f"a function on {w.spec} read over a family on {family.spec}")
    averages = iter(_family_power_averages(family, [(w, expo) for w, expo, _ in factors if expo is not None]))
    vals = None if measure_power is None else family.measure_powers(measure_power)
    parts = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for w, expo, power in factors:
            if expo is None:
                part = family.touch.minima(w.samples)
                vals = vals / part
            else:
                part = next(averages)
                if power != 1.0:
                    part = part ** power
                vals = part if vals is None else vals * part
            parts.append(part)
    return vals, parts


def _sanitize(vals: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(vals), np.inf, vals)


def _top(vals: np.ndarray) -> tuple[float, int]:
    """The max of per-cube values and its first cube; scans twice only at a nan."""
    k = int(np.argmax(vals))
    if np.isnan(vals[k]):
        return np.inf, int(np.argmax(np.isnan(vals) | (vals == np.inf)))
    return float(vals[k]), k


def ap_constant(w: GridFunction, p: float, family: CubeFamily) -> ConstantReport:
    """Muckenhoupt constant sup_Q (avg_Q w)(avg_Q w^{1-p'})^{p-1}.

    For p = 1 the ratio form sup_Q (avg_Q w) / (min_Q w) is used.
    """
    if not (p >= 1.0):
        raise POutOfRange(f"p must be at least 1, got {p}")
    _check_positive(w)
    family.require_nonempty()
    dual = _dual(w, 1.0) if p == 1.0 else (w, 1.0 - conjugate(p), p - 1.0)
    value, k = _top(_cube_values(family, [(w, 1.0, 1.0), dual])[0])
    return ConstantReport(value, family.cube(k), family.size)


def apq_constant(w: GridFunction, p: float, q: float, family: CubeFamily) -> ConstantReport:
    """sup_Q (avg_Q w^q)^{1/q} (avg_Q w^{-p'})^{1/p'} for 1 < p < q."""
    if not (1.0 < p < q):
        raise POutOfRange(f"need 1 < p < q, got p={p}, q={q}")
    _check_positive(w)
    family.require_nonempty()
    value, k = _top(_cube_values(family, [(w, q, 1.0 / q), _dual(w, p)])[0])
    return ConstantReport(value, family.cube(k), family.size)


def multiple_apq_constant(
    wv: WeightVector, p1: float, p2: float, q: float, family: CubeFamily
) -> ConstantReport:
    """sup_Q (avg_Q nu^q)^{1/q} prod_i (avg_Q w_i^{-p_i'})^{1/p_i'}.

    A p_i = 1 component contributes (min_Q w_i)^{-1}.
    """
    if not (p1 >= 1.0 and p2 >= 1.0 and q > 0.0):
        raise POutOfRange("need p_i >= 1 and q > 0")
    family.require_nonempty()
    factors = [(wv.nu, q, 1.0 / q), _dual(wv.w1, p1), _dual(wv.w2, p2)]
    value, k = _top(_cube_values(family, factors)[0])
    return ConstantReport(value, family.cube(k), family.size)


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
    if not (p1 > 1.0 and p2 > 1.0):
        raise POutOfRange("pair constants need p_i > 1")
    if not (q0 > 0.0 and q > 0.0):
        raise POutOfRange("need q0 > 0 and q > 0")
    _check_positive(lead)
    if pairs.size == 0:
        raise EmptyCubeFamily("nested pair family is empty")
    fam = pairs.family
    meas = fam.measures
    # (|Q|/|Q'|)^{1/q0} = |Q|^{1/q0} |Q'|^{-1/q0}, so the max over pairs
    # is the max over Q' of its outer factor times its best inner factor
    inner, (inner_lead,) = _cube_values(fam, [(lead, q, 1.0 / q)], 1.0 / q0)
    inner = _sanitize(inner)
    best = fam.boxes.inner_max(inner)
    outer, (outer_1, outer_2) = _cube_values(fam, [_dual(wv.w1, p1), _dual(wv.w2, p2)], -1.0 / q0)
    with np.errstate(invalid="ignore"):
        if r0 is not None:
            outer = outer * fam.measure_powers(1.0 / r0)
        K = _top(np.where(fam.aligned, outer * best, -np.inf))[1]
        inside = np.all(fam.lo >= fam.lo[K], axis=1) & np.all(fam.hi <= fam.hi[K], axis=1)
        Q = int(np.argmax(fam.aligned & inside & (inner == best[K])))
        # the witness pair's value, by the pair formula factor by factor
        value = (meas[Q] / meas[K]) ** (1.0 / q0) * inner_lead[Q] * outer_1[K] * outer_2[K]
        if r0 is not None:
            value = value * meas[K] ** (1.0 / r0)
    return ConstantReport(float(_sanitize(value)), (fam.cube(Q), fam.cube(K)), pairs.size)


def reverse_holder_probe(w: GridFunction, epsilon: float, family: CubeFamily) -> float:
    """Smallest C with (avg_Q w^{1+eps})^{1/(1+eps)} <= C avg_Q w on the family.

    Cubes where avg_Q w = 0 bound nothing, as both sides vanish there, and
    are left out; a weight that is 0 on every cube raises NonPositiveWeight.
    """
    if not (epsilon > 0.0):
        raise POutOfRange(f"epsilon must be positive, got {epsilon}")
    _check_positive(w)
    family.require_nonempty()
    lo, hi = _cube_values(family, [(w, 1.0, 1.0), (w, 1.0 + epsilon, 1.0 / (1.0 + epsilon))])[1]
    held = lo > 0.0
    if not held.any():
        raise NonPositiveWeight(f"weight is 0 on every cube of the family {family.name!r}")
    with np.errstate(invalid="ignore"):
        return _top(hi[held] / lo[held])[0]
