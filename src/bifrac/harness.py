"""Scenario construction and verification of the structural and norm claims.

Structural facts (cube location, stopping-time bookkeeping, the power
scaling identity, the local kernel-sum domination) are checked exactly
or to 1e-12.  Norm inequalities assert the existence of a constant, so
they are verified as bounded ratios with a calibrate-then-hold-out
protocol (`verify_calibrated`, shared by `bifrac verify` and `bifrac
sweep`): a calibration corpus fixes C_cal per scenario family, and the
disjoint held-out corpus must stay below 2 * C_cal.  A scenario whose
constant is infinite is left out of C_cal, or skipped when held out.

All randomness flows from one 64-bit seed through SplitMix64 (state
advances by the golden-gamma constant, output is the murmur-style
finalizer), so corpora are portable and byte-reproducible.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, InfiniteConstant, RelationViolated, SpecMismatch
from .families import CubeFamily, NestedPairs, default_family, nested_pairs
from .geometry import Cube, DyadicGrid, locate_shifted_cubes
from .lattice import GridFunction, GridSpec, _cell_slices, lp_norm
from .morrey import MorreyParams, morrey_norm, power_scaling_check, vector_morrey_norm
from .operators import (
    _check_same_spec,
    _finite,
    _local_weights,
    _offset_sum,
    bi_frac,
    multi_maximal,
    weighted_bilinear_maximal,
)
from .sparse import _root_m3q, _sparse_sums, cz_decompose
from .weights import (
    ConstantReport,
    WeightVector,
    iida_constant,
    multiple_apq_constant,
    reverse_holder_probe,
    two_weight_constant,
)

REL_TOL = 1e-12

HARNESS_SPEC = GridSpec(1, 4.0, 64)
HARNESS_GRID = DyadicGrid((0.0,))
HARNESS_Q0 = Cube((0.0,), 4.0)

HARNESS_SPEC_2D = GridSpec(2, 2.0, 32)
HARNESS_GRID_2D = DyadicGrid((0.0, 0.0))
HARNESS_Q0_2D = Cube((0.0, 0.0), 2.0)

STRUCTURAL_ALPHA = 0.5
SMALL_EXPONENT_Q = 0.8  # fixed q <= 1 exponent for the small-exponent branch


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------


class SplitMix64:
    """SplitMix64: state += 0x9E3779B97F4A7C15; output = finalizer(state)."""

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def next_u64s(self, count: int) -> np.ndarray:
        """The next count next_u64() outputs in one uint64 pass: the i-th
        state is state + i * GAMMA mod 2^64, and uint64 arithmetic wraps as
        the mask does."""
        z = np.uint64(self.state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(self.GAMMA)
        self.state = (self.state + count * self.GAMMA) & self.MASK
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11  # 53 bits
        return lo + (hi - lo) * (u / float(1 << 53))

    def uniforms(self, count: int) -> np.ndarray:
        """The next count uniform() draws in one pass; lo + (hi - lo) * u of
        a draw u is uniform(lo, hi) bit for bit (53-bit integers convert to
        float64 exactly)."""
        return (self.next_u64s(count) >> 11) / float(1 << 53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        span = hi - lo + 1
        return lo + self.next_u64() % span


def _mix_seed(seed: int, label: str) -> int:
    return (seed ^ (zlib.crc32(label.encode()) * 0x9E3779B97F4A7C15)) & SplitMix64.MASK


# ---------------------------------------------------------------------------
# Exponent profiles and verify tags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentProfile:
    """Validated exponent bundle for one inequality family."""

    tag: str
    n: int
    alpha: float
    p1: float
    p2: float
    r: float
    s: float
    p: float
    q: float
    p0: float
    q0: float
    a: float
    r0: float | None = None
    r1: float | None = None
    q1: float | None = None
    q2: float | None = None


def _chk(violations, ok: bool, relation: str):
    if not ok:
        violations.append(relation)


def _holder_exponents(tag, raw, v, n, alpha, relations) -> ExponentProfile | None:
    """Exponents of the Hoelder-type tags (T1.1, C1.4, T4.1, T4.2, T5.1),
    appending each failed relation to v.  The tags differ only in the keys
    they read: p0 = p when p0 is not given (C1.4), a 1/r0 term in 1/q0 when
    r0 is, and r1 = a q (q when q <= 1) when q1 and q2 are; `relations`,
    the tag's own, run last."""
    p1, p2 = float(raw["p1"]), float(raw["p2"])
    r, s = float(raw["r"]), float(raw["s"])
    _chk(v, p1 > r > 1, "p1 > r > 1")
    _chk(v, p2 > s > 1, "p2 > s > 1")
    _chk(v, abs(1.0 / r + 1.0 / s - 1.0) <= REL_TOL, "1/r + 1/s = 1")
    _chk(v, 1.0 < p1 and 1.0 < p2, "1 < p1, p2")
    p = 1.0 / (1.0 / p1 + 1.0 / p2)
    p0 = float(raw["p0"]) if "p0" in raw else p
    _chk(v, 0.0 < p <= p0 + REL_TOL, "0 < p <= p0")
    r0 = float(raw["r0"]) if "r0" in raw else None
    if r0 is None:
        inv_q0, relation = 1.0 / p0 - alpha / n, "1/q0 = 1/p0 - alpha/n"
    else:
        _chk(v, r0 >= n / alpha - REL_TOL, "r0 >= n/alpha")
        inv_q0, relation = 1.0 / p0 + 1.0 / r0 - alpha / n, "1/q0 = 1/p0 + 1/r0 - alpha/n"
    if inv_q0 <= REL_TOL:
        v.append(relation)
        return None
    q0 = 1.0 / inv_q0
    q = q0 * p / p0
    _chk(v, 0.0 < q <= q0 + REL_TOL, "0 < q <= q0")
    _chk(v, p > 1.0 or q > 0.5, "p > 1 or q > 1/2")
    a = float(raw.get("a", 1.25))
    q1 = q2 = r1 = None
    if "q1" in raw:
        q1, q2 = float(raw["q1"]), float(raw["q2"])
        r1 = a * q if q > 1.0 else q
    profile = ExponentProfile(tag, n, alpha, p1, p2, r, s, p, q, p0, q0, a, r0, r1, q1, q2)
    v.extend(relation for ok, relation in relations(profile) if not ok)
    return profile


def _olsen_exponents(tag, raw, v, n, alpha, relations) -> ExponentProfile | None:
    """Exponents of the Olsen-type tags (T5.2, C5.3), appending each failed
    relation to v: a 1/r0 term in 1/q0 and a = r1/q when r0 and r1 are
    given, else a = 1; `relations`, the tag's own, run before 1 < q <= q0."""
    q1, q2 = float(raw["q1"]), float(raw["q2"])
    p1, p2 = float(raw["p1"]), float(raw["p2"])
    r = float(raw.get("r", 2.0))
    _chk(v, r > 1.0, "r > 1")
    s = r / (r - 1.0) if r > 1.0 else 2.0
    inv_sum = 1.0 / q1 + 1.0 / q2
    _chk(v, alpha / n < inv_sum < 1.0, "alpha/n < 1/q1 + 1/q2 < 1")
    _chk(v, abs(p1 / q1 - p2 / q2) <= 1e-9, "q/q0 = p1/q1 = p2/q2")
    _chk(v, 1.0 < p1 <= q1 + REL_TOL and 1.0 < p2 <= q2 + REL_TOL, "1 < p_i <= q_i")
    p = 1.0 / (1.0 / p1 + 1.0 / p2)
    p0 = 1.0 / inv_sum
    r0 = r1 = None
    if "r0" in raw:
        r0, r1 = float(raw["r0"]), float(raw["r1"])
        _chk(v, 1.0 / r0 < alpha / n, "1/r0 < alpha/n")
        inv_q0, relation = 1.0 / r0 + inv_sum - alpha / n, "1/q0 = 1/r0 + 1/q1 + 1/q2 - alpha/n"
    else:
        inv_q0, relation = inv_sum - alpha / n, "1/q0 = 1/q1 + 1/q2 - alpha/n"
    if inv_q0 <= REL_TOL:
        v.append(relation)
        return None
    q0 = 1.0 / inv_q0
    q = q0 * p1 / q1
    a = 1.0 if r1 is None else r1 / q
    profile = ExponentProfile(tag, n, alpha, p1, p2, r, s, p, q, p0, q0, a, r0, r1, q1, q2)
    v.extend(relation for ok, relation in relations(profile) if not ok)
    _chk(v, 1.0 < q <= q0 + REL_TOL, "1 < q <= q0")
    return profile


def _substituted(profile: ExponentProfile, with_a: bool = False) -> tuple[float, float]:
    r, s, p1, p2 = profile.r, profile.s, profile.p1, profile.p2
    a = profile.a if with_a else 1.0  # 1.0 * s is s: the same bits as s * p1 / (s + p1)
    return s * p1 / (a * s + p1), r * p2 / (a * r + p2)


def _t11_norms(profile, item, family, pairs, out):
    wv = item.weight_vector()
    sub1, sub2 = _substituted(profile)
    lhs = morrey_norm(out * wv.nu, MorreyParams(profile.q0, profile.q), family)
    rhs = vector_morrey_norm(item.f * item.w1, item.g * item.w2, profile.p0, profile.p1, profile.p2, family)
    return lhs, rhs, iida_constant(wv, profile.a * profile.q0, profile.q, sub1, sub2, pairs)


def _c14_norms(profile, item, family, pairs, out):
    wv = item.weight_vector()
    sub1, sub2 = _substituted(profile)
    lhs = lp_norm(out * wv.nu, profile.q)
    rhs = lp_norm(item.f * item.w1, profile.p1) * lp_norm(item.g * item.w2, profile.p2)
    return lhs, rhs, multiple_apq_constant(wv, sub1, sub2, profile.q, family)


def _t4_norms(profile, item, family, pairs, out):
    """T4.1, and T4.2 with its r0 decay (a T4.1 profile holds r0 = None)."""
    wv = item.weight_vector()
    sub1, sub2 = _substituted(profile, with_a=True)
    second = profile.a * profile.q if profile.q > 1.0 else profile.q
    lhs = morrey_norm(out * item.v, MorreyParams(profile.q0, profile.q), family)
    rhs = vector_morrey_norm(item.f * item.w1, item.g * item.w2, profile.p0, profile.p1, profile.p2, family)
    const = two_weight_constant(item.v, wv, profile.a * profile.q0, second, sub1, sub2, pairs, r0=profile.r0)
    return lhs, rhs, const


def _olsen_norms(profile, item, family, pairs, out):
    """T5.1 and T5.2, with the multiplier hfun in M^{r0}_{r1}, and C5.3
    (whose profile holds r0 = None) without; their constant is 1, and they
    read neither weight."""
    norm_f = morrey_norm(item.f, MorreyParams(profile.q1, profile.p1), family)
    norm_g = morrey_norm(item.g, MorreyParams(profile.q2, profile.p2), family)
    if profile.r0 is None:
        lhs, rhs = morrey_norm(out, MorreyParams(profile.q0, profile.q), family), norm_f * norm_g
    else:
        lhs = morrey_norm(out * item.hfun, MorreyParams(profile.q0, profile.q), family)
        rhs = morrey_norm(item.hfun, MorreyParams(profile.r0, profile.r1), family) * norm_f * norm_g
    return lhs, rhs, ConstantReport(1.0, Cube((0.0,) * item.spec.dim, 1.0), 0)


@dataclass(frozen=True)
class TagRule:
    """Everything one inequality tag owns.  A profile of the tag holds its
    `required` keys and any of its `optional` ones (`n` defaults to 1, `a`
    to 1.25 and `r` to 2); `derive` turns them into an ExponentProfile and
    checks the relations its family shares, `relations` lists the tag's own
    (ok, relation) pairs on the derived profile, `evaluate(profile, item,
    family, pairs, out)` gives one scenario's lhs norm, rhs norm product
    and constant report from out = bi_frac(f, g, alpha), building the item's
    weight vector only if it reads the weights, and `catalog` holds valid
    raw profiles."""

    required: tuple[str, ...]
    optional: tuple[str, ...]
    derive: Callable
    evaluate: Callable
    relations: Callable[[ExponentProfile], list[tuple[bool, str]]]
    catalog: tuple[dict, ...]


_HOLDER_KEYS = ("alpha", "p1", "p2", "r", "s")


def _r0_window(x: ExponentProfile) -> tuple[bool, str]:
    """The window on a of T4.2 and T5.1."""
    return 1.0 < x.a < min(x.r0 / x.q0, x.p1 / x.r, x.p2 / x.s), "1 < a < min(r0/q0, p1/s', p2/r')"


TAG_RULES: dict[str, TagRule] = {
    "T1.1": TagRule(
        (*_HOLDER_KEYS, "p0"), ("n", "a"), _holder_exponents, _t11_norms,
        relations=lambda x: [(x.a > 1.0, "a > 1")],
        catalog=(
            dict(n=1, alpha=1 / 3, p1=4, p2=4, r=2, s=2, p0=2, a=1.25),
            dict(n=1, alpha=1 / 4, p1=6, p2=3, r=2, s=2, p0=2.5, a=1.5),
            dict(n=1, alpha=1 / 4, p1=5, p2=5, r=2.5, s=5 / 3, p0=3, a=1.2),
        ),
    ),
    "C1.4": TagRule(
        _HOLDER_KEYS, ("n", "a"), _holder_exponents, _c14_norms,
        relations=lambda x: [
            (x.a > 1.0, "a > 1"),
            (abs(1.0 / x.p1 + 1.0 / x.p2 - 1.0 / x.q - x.alpha / x.n) <= 1e-9, "1/p1 + 1/p2 - 1/q = alpha/n"),
        ],
        catalog=(
            dict(n=1, alpha=1 / 3, p1=4, p2=4, r=2, s=2, a=1.25),
            dict(n=1, alpha=1 / 4, p1=6, p2=3, r=2, s=2, a=1.25),
            dict(n=1, alpha=1 / 4, p1=5, p2=5, r=2.5, s=5 / 3, a=1.25),
        ),
    ),
    "T4.1": TagRule(
        (*_HOLDER_KEYS, "p0"), ("n", "a"), _holder_exponents, _t4_norms,
        relations=lambda x: [(1.0 < x.a < min(x.p1 / x.r, x.p2 / x.s), "1 < a < min(p1/s', p2/r')")],
        catalog=(
            dict(n=1, alpha=1 / 3, p1=4, p2=4, r=2, s=2, p0=2, a=1.5),
            dict(n=1, alpha=1 / 4, p1=6, p2=3, r=2, s=2, p0=2.5, a=1.25),
            dict(n=1, alpha=1 / 4, p1=5, p2=5, r=2.5, s=5 / 3, p0=3, a=1.5),
        ),
    ),
    "T4.2": TagRule(
        (*_HOLDER_KEYS, "p0", "r0"), ("n", "a"), _holder_exponents, _t4_norms,
        relations=lambda x: [_r0_window(x)],
        catalog=(
            dict(n=1, alpha=1 / 4, p1=4, p2=4, r=2, s=2, p0=2, r0=4, a=1.5),
            dict(n=1, alpha=1 / 3, p1=4, p2=4, r=2, s=2, p0=2, r0=3, a=1.25),
            dict(n=1, alpha=0.4, p1=6, p2=3, r=2, s=2, p0=2, r0=2.5, a=1.2),
        ),
    ),
    "T5.1": TagRule(
        (*_HOLDER_KEYS, "p0", "r0", "q1", "q2"), ("n", "a"), _holder_exponents, _olsen_norms,
        relations=lambda x: [
            _r0_window(x),
            (abs(1.0 / x.q1 + 1.0 / x.q2 - 1.0 / x.p0) <= 1e-9, "1/q1 + 1/q2 = 1/p0"),
            (x.p1 <= x.q1 + REL_TOL and x.p2 <= x.q2 + REL_TOL, "p_i <= q_i"),
            (x.q < x.r1 <= x.r0 + REL_TOL if x.q > 1.0 else x.r1 <= x.r0, "r1 = aq in (q, r0]"),
        ],
        catalog=(
            dict(n=1, alpha=1 / 4, p1=4, p2=4, r=2, s=2, p0=2, r0=4, a=1.5, q1=4, q2=4),
            dict(n=1, alpha=1 / 3, p1=4, p2=4, r=2, s=2, p0=2, r0=3, a=1.25, q1=4, q2=4),
            dict(n=1, alpha=1 / 3, p1=3, p2=6, r=2, s=2, p0=2, r0=3, a=1.2, q1=3, q2=6),
        ),
    ),
    "T5.2": TagRule(
        ("alpha", "q1", "q2", "p1", "p2", "r0", "r1"), ("n", "r"), _olsen_exponents, _olsen_norms,
        relations=lambda x: [(x.r1 > x.q, "r1 > q"), (1.0 < x.r1 <= x.r0 + REL_TOL, "1 < r1 <= r0")],
        catalog=(
            dict(n=1, alpha=0.3, q1=6, q2=6, p1=4, p2=4, r0=4, r1=3, r=2),
            dict(n=1, alpha=0.35, q1=4, q2=8, p1=3, p2=6, r0=3, r1=2.5, r=2),
            dict(n=1, alpha=0.28, q1=5, q2=5, p1=3, p2=3, r0=4, r1=2, r=1.8),
        ),
    ),
    "C5.3": TagRule(
        ("alpha", "q1", "q2", "p1", "p2"), ("n", "r"), _olsen_exponents, _olsen_norms,
        relations=lambda x: [],
        catalog=(
            dict(n=1, alpha=1 / 4, q1=6, q2=6, p1=3, p2=3, r=2),
            dict(n=1, alpha=1 / 3, q1=4, q2=8, p1=2, p2=4, r=1.9),
            dict(n=1, alpha=0.2, q1=5, q2=10, p1=2.5, p2=5, r=2),
        ),
    ),
}
TAGS = tuple(TAG_RULES)


def tag_rule(tag: str) -> TagRule:
    """The record of an inequality tag; ConfigInvalid for any other tag."""
    rule = TAG_RULES.get(tag)
    if rule is None:
        raise ConfigInvalid(f"unknown profile tag {tag!r}; known tags are {list(TAG_RULES)}")
    return rule


def check_profile_contract(tag: str, keys) -> None:
    """ConfigInvalid naming an unknown tag, or the missing and unknown keys
    (TagRule.required, TagRule.optional) among `keys`."""
    rule = tag_rule(tag)
    missing = [k for k in rule.required if k not in keys]
    unknown = sorted(set(keys) - set(rule.required) - set(rule.optional))
    if missing or unknown:
        raise ConfigInvalid(
            f"profile for {tag}: missing keys {missing}, unknown keys {unknown}; "
            f"it needs {list(rule.required)} and may hold {list(rule.optional)}"
        )


def profile_violations(tag: str, **raw) -> tuple[ExponentProfile | None, list[str]]:
    """Derived exponents plus the list of violated relations (empty if valid),
    once the profile contract holds (check_profile_contract)."""
    check_profile_contract(tag, raw)
    rule = TAG_RULES[tag]
    v: list[str] = []
    n = int(raw.get("n", 1))
    alpha = float(raw["alpha"])
    _chk(v, 0.0 < alpha < n, "0 < alpha < n")
    profile = rule.derive(tag, raw, v, n, alpha, rule.relations)
    return (None, v) if v else (profile, [])


def make_profile(tag: str, **raw) -> ExponentProfile:
    """Validated profile: ConfigInvalid names a tag or key outside the profile
    contract (see profile_violations), RelationViolated the failing relations."""
    profile, violations = profile_violations(tag, **raw)
    if violations:
        raise RelationViolated(violations)
    return profile


def catalog_profiles(tag: str) -> list[ExponentProfile]:
    return [make_profile(tag, **raw) for raw in tag_rule(tag).catalog]


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

CORPUS_KINDS = ("indicators", "random-steps", "spikes", "power-weights")

POWER_WEIGHT_BETA_RANGE = (-0.4, 0.4)
WEIGHT_CLAMP = 1e-8
SPIKE_ROOT_TARGET = 0.9  # fraction of a/2 allowed for the root average
_WEIGHT_NAMES = ("w1", "w2", "v", "hfun")


@dataclass(frozen=True)
class CorpusItem:
    """One scenario: data pair, weights, and the geometry that built them."""

    item_id: str
    kind: str
    spec: GridSpec
    descriptors: dict
    f: GridFunction
    g: GridFunction
    w1: GridFunction
    w2: GridFunction
    v: GridFunction
    hfun: GridFunction

    def weight_vector(self) -> WeightVector:
        return WeightVector(self.w1, self.w2)


def _materialize(spec: GridSpec, pieces: list[tuple], scale: float) -> np.ndarray:
    """Evaluate a descriptor list on the lattice; coordinates scale by `scale`.
    Pieces: ("block", lower corner, upper corner, value), ("spike", point,
    amplitude), 1D ("power", x0, beta), ("const", c) and ("rescale", c)."""
    arr = np.zeros(spec.shape)
    n = spec.cells_per_axis
    for piece in pieces:
        kind = piece[0]
        if kind == "const":
            arr += piece[1]
        elif kind == "block":
            ends = [(spec.edge_index(a * scale), spec.edge_index(b * scale)) for a, b in zip(piece[1], piece[2])]
            # both ends clamped into [0, n]: a block wholly outside the box adds nothing
            arr[tuple([slice(min(max(0, i0), n), min(max(0, i1), n)) for i0, i1 in ends])] += piece[3]
        elif kind == "spike":
            cell = spec.cell_of_point([c * scale for c in piece[1]])
            if cell is not None:
                arr[cell] += piece[2]
        elif kind == "power":
            x0, beta = piece[1] * scale, piece[2]
            # a dilation can put x0 on a midpoint, where a negative beta gives +inf
            with np.errstate(divide="ignore"):
                arr += np.clip(np.abs(spec.midpoints() - x0) ** beta, WEIGHT_CLAMP, 1.0 / WEIGHT_CLAMP)
        elif kind == "rescale":
            arr *= piece[1]
        else:
            raise ValueError(f"unknown descriptor piece {kind!r}")
    return arr


def _grid_fn(spec, pieces, scale=1.0) -> GridFunction:
    return GridFunction(spec, _materialize(spec, pieces, scale), nonnegative=True)


# The fewest cells per axis of a random block, by dimension, and of a
# support holding a concentration site (_site draws it in [i_lo + 2, i_hi - 3]).
BLOCK_MIN_CELLS = {1: 4, 2: 2}
SITE_MIN_CELLS = 5


def _site(rng, i_lo: int, i_hi: int) -> int:
    return rng.randint(i_lo + 2, i_hi - 3)


def _rand_block(rng, spec, lo, hi, vmin, vmax):
    """Random lattice-aligned block inside [lo, hi)^n with a random level:
    the widths, then the starts, then the level are drawn."""
    i_lo, i_hi = spec.edge_index(lo), spec.edge_index(hi)
    min_cells = BLOCK_MIN_CELLS[spec.dim]
    top = max(min_cells, (i_hi - i_lo) // 2)
    widths = [rng.randint(min_cells, top) for _ in range(spec.dim)]
    corner, upper = [], []
    for w in widths:
        corner.append(spec.edge(rng.randint(i_lo, i_hi - w)))
        upper.append(corner[-1] + w * spec.h)  # not spec.edge(start + w): the two round apart
    return ("block", tuple(corner), tuple(upper), rng.uniform(vmin, vmax))


def _step_weight_pieces(rng, spec, lo, hi):
    # two blocks at worst subtract 0.4 from the floor of 0.7: always positive
    pieces = [("const", rng.uniform(0.7, 1.4))]
    return pieces + [_rand_block(rng, spec, lo, hi, -0.2, 1.0) for _ in range(rng.randint(1, 2))]


def _concentration_guard(f: GridFunction, g: GridFunction, Q0: Cube) -> float:
    """Rescale factor keeping stopping-time selections at small scales.

    A selected cube of side ell pulls its whole 3x window into D_k, so
    selections at sides with (3 ell)^n > |Q0|/2 can break the
    half-measure bookkeeping.  The guard caps m_{3Q} at 0.9 * 2^(2n+1)
    over every dyadic subcube at those sides, which confines selections
    to scales where a single concentration site costs at most 3^n ell^n
    <= |Q0|/2 of measure.
    """
    spec = f.spec
    n = spec.dim
    a = 2.0 ** (2 * n + 1)
    safe_side = (Q0.measure / (2.0 * 3.0 ** n)) ** (1.0 / n)
    tree, m = _root_m3q(spec, f.samples, g.samples, 2.0, 2.0, Q0)
    big = tree.sides > safe_side * (1 + 1e-9)  # a prefix of the breadth-first cubes
    worst = max([0.0] + m[big].tolist())
    target = SPIKE_ROOT_TARGET * a
    if worst > target:
        return math.sqrt(target / worst)
    return 1.0


def corpus(
    seed: int,
    kind: str,
    spec: GridSpec | None = None,
    count: int = 5,
    support: tuple[float, float] | None = None,
) -> list[CorpusItem]:
    """Deterministic scenario list for one seed and corpus kind.

    The same seed always produces the same items, byte for byte.  The
    optional `support` window confines data geometry (used by the
    dilation suite, which needs room to scale supports up); a support
    narrower than the kind's draws need (BLOCK_MIN_CELLS cells per axis,
    SITE_MIN_CELLS for 1D spikes and for 2D) is a ConfigInvalid.
    """
    spec = spec or HARNESS_SPEC
    kinds = CORPUS_KINDS if spec.dim == 1 else ("random-steps", "spikes")  # 2D items are steps or spikes
    if kind not in kinds:
        raise ValueError(f"a {spec.dim}D corpus kind must be one of {kinds}, got {kind!r}")
    rng = SplitMix64(_mix_seed(seed, kind))
    if support is None:
        support = (0.5, 0.5 * spec.half_width * 2.0 - 0.5) if spec.dim == 1 else (0.25, 1.75)
    lo, hi = support
    cells = spec.edge_index(hi) - spec.edge_index(lo)
    need = max(BLOCK_MIN_CELLS[spec.dim], SITE_MIN_CELLS if kind == "spikes" or spec.dim == 2 else 0)
    if cells < need:
        raise ConfigInvalid(
            f"corpus support {support} spans {cells} cells per axis of {spec}; a {kind!r} corpus needs at least {need}"
        )
    items = []
    for idx in range(count):
        if spec.dim == 2:
            items.append(_corpus_item_2d(rng, seed, kind, spec, idx, lo, hi))
            continue
        desc: dict[str, list] = {}
        if kind == "indicators" and idx == 0:
            desc = {name: [("block", (-1.0,), (1.0,), 1.0)] for name in ("f", "g")}
            desc.update((w, [("const", 1.0)]) for w in _WEIGHT_NAMES)
        elif kind == "indicators":
            desc = {name: [_rand_block(rng, spec, lo, hi, 1.0, 1.0)] for name in ("f", "g")}
        elif kind == "spikes":
            # one concentration site shared by f and g (offset a few cells)
            site = _site(rng, spec.edge_index(lo), spec.edge_index(hi))
            for name in ("f", "g"):
                pieces = [_rand_block(rng, spec, lo, hi, 0.02, 0.1)]
                pos = spec.edge(site + rng.randint(-2, 2))
                desc[name] = pieces + [("spike", (pos,), rng.uniform(8.0, 18.0))]
        else:  # random-steps: 2 to 4 blocks each; power-weights: 1 to 3
            blocks = (2, 4) if kind == "random-steps" else (1, 3)
            for name in ("f", "g"):
                desc[name] = [_rand_block(rng, spec, lo, hi, 0.2, 1.2) for _ in range(rng.randint(*blocks))]
        if kind == "power-weights":
            for w in ("w1", "w2"):
                if idx == 0:
                    desc[w] = [("const", 1.0)]
                else:
                    x0 = spec.edge(rng.randint(spec.edge_index(lo), spec.edge_index(hi)))
                    desc[w] = [("power", x0, rng.uniform(*POWER_WEIGHT_BETA_RANGE))]
        for w in _WEIGHT_NAMES:  # in this order, after f and g
            if w not in desc:
                desc[w] = _step_weight_pieces(rng, spec, lo, hi)
        items.append(_build_item(f"{kind}-{seed}-{idx}", kind, spec, desc))
    return items


def _build_item(item_id, kind, spec, desc, scale=1.0) -> CorpusItem:
    f = _grid_fn(spec, desc["f"], scale)
    g = _grid_fn(spec, desc["g"], scale)
    if kind == "spikes":
        q0 = Cube((0.0,) * spec.dim, spec.half_width)
        factor = _concentration_guard(f, g, q0)
        if factor < 1.0:
            desc = dict(desc)
            desc["f"] = list(desc["f"]) + [("rescale", factor)]
            desc["g"] = list(desc["g"]) + [("rescale", factor)]
            f = _grid_fn(spec, desc["f"], scale)
            g = _grid_fn(spec, desc["g"], scale)
    weights = {w: _grid_fn(spec, desc[w], scale) for w in _WEIGHT_NAMES}
    return CorpusItem(item_id=item_id, kind=kind, spec=spec, descriptors=desc, f=f, g=g, **weights)


def _corpus_item_2d(rng, seed, kind, spec, idx, lo, hi) -> CorpusItem:
    desc: dict[str, list] = {}
    i_lo, i_hi = spec.edge_index(lo), spec.edge_index(hi)
    site = (_site(rng, i_lo, i_hi), _site(rng, i_lo, i_hi))
    for name in ("f", "g"):
        pieces = [_rand_block(rng, spec, lo, hi, 0.02, 0.1)]
        if kind == "spikes":
            point = tuple(spec.edge(i + rng.randint(-2, 2)) for i in site)
            pieces.append(("spike", point, rng.uniform(40.0, 130.0)))
        else:
            pieces.extend(_rand_block(rng, spec, lo, hi, 0.2, 1.2) for _ in range(rng.randint(1, 3)))
        desc[name] = pieces
    desc.update((w, [("const", 1.0)]) for w in _WEIGHT_NAMES)
    return _build_item(f"{kind}-{seed}-{idx}", kind, spec, desc)


def dilate_item(item: CorpusItem, scale_exp: int) -> CorpusItem:
    """Rebuild a corpus item with all geometry dilated by 2^scale_exp.

    A spikes item, 1D or 2D, passes _concentration_guard again at the new
    scale (its descriptors already hold the original rescale, if any).  The
    descriptors hold corpus coordinates, so dilations do not compose: an
    item that is already dilated is refused with a ValueError.
    """
    if "@x" in item.item_id:
        raise ValueError(f"item {item.item_id!r} is already dilated; dilate the corpus item instead")
    scale = 2.0 ** scale_exp
    return _build_item(f"{item.item_id}@x{scale:g}", item.kind, item.spec, item.descriptors, scale=scale)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """One scenario verdict: norms, constant, ratio against the bound."""

    scenario: str
    lhs: float
    rhs: float
    constant: float
    ratio: float
    bound: float
    passed: bool
    note: str = ""


def witness_text(witness) -> str:
    """A witness cube, or a tuple of them joined by ' | ', as text."""
    if isinstance(witness, tuple):
        return " | ".join(c.serialize() for c in witness)
    return witness.serialize()


def _report(scenario, lhs, rhs, constant, ratio, bound, note="") -> Report:
    return Report(
        scenario=scenario,
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        ratio=ratio,
        bound=bound,
        passed=bool(ratio <= bound),
        note=note,
    )


# ---------------------------------------------------------------------------
# Structural verification
# ---------------------------------------------------------------------------


def check_sparse_invariants(family) -> list[str]:
    """Exact stopping-time invariants; returns failure strings (empty = pass)."""
    fails = []
    a = family.base_constant
    n = family.spec.dim
    upper = 2.0 ** (2 * n)
    parts = [family.e0_cells]
    for k, scs in family.levels.items():
        level_cells = [sc.cells for sc in scs]
        if level_cells:
            merged = np.sort(np.concatenate(level_cells))
            if (merged[1:] == merged[:-1]).any():
                fails.append(f"level {k} selected cubes overlap")
        for j, sc in enumerate(scs):
            parts.append(sc.e_cells)
            if not (sc.m_value > a ** k):
                fails.append(f"lower threshold fails at level {k} cube {j}")
            if not (sc.m_value <= upper * a ** k * (1 + 1e-12)):
                fails.append(f"upper threshold fails at level {k} cube {j}")
            if sc.cell_count > 2 * sc.e_count:
                fails.append(f"|Q| <= 2|E| fails at level {k} cube {j}")
        if k + 1 in family.levels:
            next_cells = family.level_cells(k + 1)
            for sc in scs:
                inter = int(np.isin(sc.cells, next_cells, kind="table").sum())  # sc.cells are distinct
                if 2 * inter > sc.cell_count:
                    fails.append(f"half-measure bound fails at level {k}")
    for k, scs in family.levels.items():
        if k - 1 in family.levels:
            prev = family.level_cells(k - 1)
            for sc in scs:
                if not np.isin(sc.cells, prev, kind="table").all():
                    fails.append(f"level {k} cube escapes level {k - 1}")
    d1 = family.level_cells(1)
    if 2 * len(d1) > len(family.root_cells):
        fails.append("|D_1| <= |Q_0|/2 fails")
    if len(family.root_cells) > 2 * len(family.e0_cells):
        fails.append("|Q_0| <= 2|E_0| fails")
    if not np.array_equal(np.sort(np.concatenate(parts)), family.root_cells):
        fails.append("difference sets do not partition Q_0")
    return fails


def _one_third_cubes(seed: int, samples: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The random cubes (samples x dim corners, sides) of the one-third
    check, in one pass of draws: per sample, uniform(0.01, box_half / 2) for
    the side, then uniform(-box_half, box_half - side) per corner coordinate."""
    rng = SplitMix64(_mix_seed(seed, f"one-third-{dim}d"))
    box_half = 4.0 if dim == 1 else 2.0
    u = rng.uniforms(samples * (dim + 1)).reshape(samples, dim + 1)
    sides = 0.01 + (box_half / 2 - 0.01) * u[:, 0]
    return -box_half + ((box_half - sides)[:, None] - -box_half) * u[:, 1:], sides


def cube_location_worst_ratio(seed: int, samples: int, dim: int = 1) -> tuple[float, bool]:
    """Max side ratio and containment success over random cubes."""
    corners, sides = _one_third_cubes(seed, samples, dim)
    _, corner_t, side_t = locate_shifted_cubes(corners, sides)
    tol = (1e-9 * np.maximum(1.0, sides))[:, None]
    inside = (corners >= corner_t - tol) & (corners + sides[:, None] <= corner_t + side_t[:, None] + tol)
    all_ok = bool(np.all(inside) and np.all(side_t <= 6.0 * sides * (1 + 1e-9)))
    worst = float(np.max(side_t / sides, initial=0.0))
    return worst, all_ok


def _max_cell_ratio(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """The cellwise ratio rule of the domination checks: the max of lhs / rhs
    over the cells where rhs > 0; +inf if a cell with rhs <= 0 has lhs >
    1e-15; 0 when no cell has rhs > 0."""
    pos = rhs > 0
    if np.any(~pos & (lhs > 1e-15)):
        return math.inf
    return float(np.max(lhs[pos] / rhs[pos])) if pos.any() else 0.0


def local_part_ratio(item: CorpusItem) -> float:
    """Max over Q0 cells of local kernel sum / sparse cube sum, at STRUCTURAL_ALPHA."""
    return local_part_ratios((item,))[0]


def local_part_ratios(items) -> list[float]:
    """local_part_ratio of each item, all on one spec: the local part of
    bi_frac's kernel split (_local_weights) and sparse_bound's samples, each
    from one pass over the stacked items, bit for bit as per item."""
    spec = _check_same_spec(*(fn for it in items for fn in (it.f, it.g)))
    Q0 = HARNESS_Q0 if spec.dim == 1 else HARNESS_Q0_2D
    fs, gs = np.stack([it.f.samples for it in items]), np.stack([it.g.samples for it in items])
    w_local = _local_weights(spec, STRUCTURAL_ALPHA, Q0)
    local = _finite(_offset_sum(w_local, fs, gs), f"bi_frac with alpha = {STRUCTURAL_ALPHA!r}", "on a cell")
    sb = _sparse_sums(spec, fs, gs, STRUCTURAL_ALPHA, 2.0, 2.0, Q0)
    sl = (slice(None),) + _cell_slices(spec, Q0)
    return [
        _max_cell_ratio(lv, sv)
        for lv, sv in zip(local[sl].reshape(len(items), -1), sb[sl].reshape(len(items), -1))
    ]


def verify_structural(seed: int) -> list[Report]:
    """Exact structural checks; failures are reported, never raised."""
    reports: list[Report] = []
    worst, ok = cube_location_worst_ratio(seed, 300)
    reports.append(
        _report(f"one-third-trick-{seed}", worst, 6.0, 1.0, worst / 6.0, 1.0, note="side ratio vs 6")
    )
    if not ok:
        reports[-1].passed = False

    fam = default_family(HARNESS_SPEC)
    rngexp = SplitMix64(_mix_seed(seed, "scaling"))
    items = corpus(seed, "spikes", count=2) + corpus(seed, "random-steps", count=2)
    for item in items:
        sf = cz_decompose(item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
        fails = check_sparse_invariants(sf)
        reports.append(
            _report(
                f"stopping-time-{item.item_id}",
                float(len(fails)),
                0.0,
                1.0,
                float(len(fails)),
                0.5,
                note="; ".join(fails) if fails else "all exact invariants hold",
            )
        )
        q_exp = rngexp.uniform(3.0, 6.0)
        p0_exp = q_exp + rngexp.uniform(0.0, 3.0)
        ell = rngexp.uniform(1.1, q_exp - 0.5)
        lhs, rhs = power_scaling_check(item.f + 1e-3, p0_exp, q_exp, ell, fam)
        rel = abs(lhs - rhs) / max(rhs, 1e-300)
        reports.append(
            _report(
                f"power-scaling-{item.item_id}", lhs, rhs, 1.0, rel, REL_TOL,
                note="exponent scaling identity",
            )
        )

    cal_items = corpus(_mix_seed(seed, "cal31"), "spikes", count=3) + corpus(
        _mix_seed(seed, "cal31"), "random-steps", count=3
    )
    ratios = local_part_ratios(cal_items + items)
    c_cal = max(ratios[: len(cal_items)])
    for item, ratio in zip(items, ratios[len(cal_items) :]):
        reports.append(
            _report(
                f"local-domination-{item.item_id}",
                ratio,
                c_cal,
                1.0,
                ratio / (2.0 * c_cal) if c_cal > 0 else math.inf,
                1.0,
                note=f"calibrated C={c_cal:.6g}",
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Norm inequality verification
# ---------------------------------------------------------------------------


def _check_agree(profile: ExponentProfile, item: CorpusItem, family: CubeFamily, pairs: NestedPairs):
    """SpecMismatch unless `pairs` is the nesting relation of `family` and the
    profile's dimension n is the item's."""
    if pairs.family is not family:
        raise SpecMismatch(f"pairs of the family {pairs.family.name!r} on {pairs.family.spec}, not of the family given")
    if profile.n != item.spec.dim:
        raise SpecMismatch(f"a {profile.tag} profile with n = {profile.n} on the {item.spec.dim}D item {item.item_id!r}")


def evaluate_inequality_item(
    profile: ExponentProfile,
    item: CorpusItem,
    family: CubeFamily,
    pairs: NestedPairs,
) -> tuple[float, float, ConstantReport]:
    """(lhs norm, rhs norm product, constant report) for one scenario, by
    the evaluator of the profile's tag (ConfigInvalid for an unknown tag)."""
    rule = tag_rule(profile.tag)
    _check_agree(profile, item, family, pairs)
    out = bi_frac(item.f, item.g, profile.alpha)
    return rule.evaluate(profile, item, family, pairs, out)


def _item_ratio(profile, item, family, pairs) -> tuple[float, float, float, ConstantReport]:
    lhs, rhs, const = evaluate_inequality_item(profile, item, family, pairs)
    if not math.isfinite(const.value):
        raise InfiniteConstant(f"constant hit +inf on {item.item_id}")
    ratio = lhs / (const.value * rhs) if rhs > 0 and const.value > 0 else math.inf
    return lhs, rhs, ratio, const


# A scenario whose constant is +inf lies outside the weight class.  A held-out
# one passes with this note and is counted as `skipped`; a calibration one is
# left out of C_cal.
SKIPPED_NOTE = "hypothesis not satisfied (infinite constant); skipped"


def protocol_corpora(
    seed: int, kind: str, n_cal: int = 10, n_eval: int = 30
) -> tuple[list[CorpusItem], list[CorpusItem]]:
    """(calibration items, held-out items) for one seed; the calibration seed is mixed."""
    return (
        corpus(_mix_seed(seed, "calibration"), kind, count=n_cal),
        corpus(seed, kind, count=n_eval),
    )


def verify_calibrated(
    profile: ExponentProfile,
    cal_items: list[CorpusItem],
    eval_items: list[CorpusItem],
    family: CubeFamily,
) -> tuple[list[Report], dict]:
    """Calibrate-then-hold-out: held-out ratios against 2 * (max calibration ratio).

    A scenario with an infinite constant is left out of C_cal in calibration
    and reported as skipped when held out; only a calibration corpus with no
    finite ratio raises InfiniteConstant.  Returns the held-out reports and the
    summary fields calibration_max, bound, max_ratio, failures, skipped.
    """
    pairs = nested_pairs(family)

    def ratio_or_none(item):
        try:
            return _item_ratio(profile, item, family, pairs)
        except InfiniteConstant:
            return None

    calibrated = [ratio_or_none(item) for item in cal_items]
    finite = [out[2] for out in calibrated if out is not None and math.isfinite(out[2])]
    if not finite:
        raise InfiniteConstant("calibration produced no finite ratios")
    c_cal = max(finite)
    bound = 2.0 * c_cal
    reports = []
    for item in eval_items:
        scenario = f"{profile.tag}-{item.item_id}"
        out = ratio_or_none(item)
        if out is None:
            rep = _report(scenario, math.nan, math.nan, math.inf, math.inf, bound, note=SKIPPED_NOTE)
            rep.passed = True
        else:
            lhs, rhs, ratio, const = out
            rep = _report(scenario, lhs, rhs, const.value, ratio, bound)
        reports.append(rep)
    held_out = [r.ratio for r in reports if math.isfinite(r.ratio)]
    return reports, {
        "calibration_max": c_cal,
        "bound": bound,
        "max_ratio": max(held_out) if held_out else None,
        "failures": sum(0 if r.passed else 1 for r in reports),
        "skipped": sum(r.note == SKIPPED_NOTE for r in reports),
    }


def run_verify(profile: ExponentProfile, kind: str, seed: int, **counts) -> tuple[list[Report], dict]:
    """Calibrate-then-hold-out on the two corpora of one seed; CLI entry point.
    `counts` (n_cal, n_eval) go to protocol_corpora, which holds their defaults."""
    cal_items, eval_items = protocol_corpora(seed, kind, **counts)
    reports, fields = verify_calibrated(profile, cal_items, eval_items, default_family(HARNESS_SPEC))
    return reports, {"schema": 1, "tag": profile.tag, "kind": kind, "seed": seed, **fields}


# ---------------------------------------------------------------------------
# Pointwise domination
# ---------------------------------------------------------------------------

DOMINATION_MODES = ("weighted", "small-exponent", "two-weight", "two-weight-decay")


def domination_ratio(
    profile: ExponentProfile,
    item: CorpusItem,
    mode: str,
    family: CubeFamily,
    pairs: NestedPairs,
) -> float:
    """Max over cells of weighted bilinear maximal / (constant * product maximal)."""
    if mode not in DOMINATION_MODES:
        raise ValueError(f"mode must be one of {DOMINATION_MODES}")
    _check_agree(profile, item, family, pairs)
    a, r, s, alpha = profile.a, profile.r, profile.s, profile.alpha
    f, g = item.f, item.g
    wv = item.weight_vector()
    ones = GridFunction.constant(item.spec, 1.0)
    if mode in ("weighted", "small-exponent"):
        qexp = a * profile.q if mode == "weighted" else SMALL_EXPONENT_Q
        sub1, sub2 = _substituted(profile)
        lhs = weighted_bilinear_maximal(
            f, g, item.w1, item.w2, alpha, r, s, qexp, family
        )
        const = iida_constant(
            wv, a * profile.q0, profile.q if mode == "weighted" else SMALL_EXPONENT_Q,
            sub1, sub2, pairs,
        )
        rhs_alpha = alpha
    else:
        qexp = a * profile.q if profile.q > 1.0 else profile.q
        sub1, sub2 = _substituted(profile, with_a=True)
        lhs = weighted_bilinear_maximal(f, g, item.v, ones, alpha, r, s, qexp, family)
        const = two_weight_constant(
            item.v, wv, a * profile.q0, qexp, sub1, sub2, pairs,
            r0=profile.r0 if mode == "two-weight-decay" else None,
        )
        rhs_alpha = alpha - profile.n / profile.r0 if mode == "two-weight-decay" else alpha
    rhs = multi_maximal(f * item.w1, g * item.w2, rhs_alpha, profile.p1 / a, profile.p2 / a, family)
    if not math.isfinite(const.value):
        raise InfiniteConstant("domination constant hit +inf")
    return _max_cell_ratio(lhs.samples.reshape(-1), rhs.samples.reshape(-1) * const.value)


# ---------------------------------------------------------------------------
# Small-exponent reverse Hoelder machinery
# ---------------------------------------------------------------------------

RH_PROBE_CAP = 2.0  # the most the probe constant may read at the chosen epsilon


def choose_rh_epsilon(w: GridFunction, family: CubeFamily) -> tuple[float, float]:
    """(eps, probe constant at eps): the largest eps from a fixed ladder whose
    probe constant stays at most RH_PROBE_CAP, else the ladder's floor 1/32."""
    for eps in (1.0, 0.5, 0.25, 0.125, 0.0625):
        probe = reverse_holder_probe(w, eps, family)
        if probe <= RH_PROBE_CAP:
            return eps, probe
    return 0.03125, reverse_holder_probe(w, 0.03125, family)


def small_exponent_chain_check(
    wv: WeightVector,
    profile: ExponentProfile,
    family: CubeFamily,
) -> dict:
    """The small-exponent route: pair constant vs probe-driven single-cube bound.

    With q = q0 and a = 1 + eps, the pair constant is dominated by
    C_probe^(1/q) times the single-cube product constant, each step of
    the chain holding exactly on the shared family.
    """
    q = profile.q
    eps, c_probe = choose_rh_epsilon(wv.nu.abs_pow(q), family)
    a = 1.0 + eps
    sub1, sub2 = _substituted(profile)
    pair = iida_constant(wv, a * profile.q0, q, sub1, sub2, nested_pairs(family))
    single = multiple_apq_constant(wv, sub1, sub2, q, family)
    bound_chain = c_probe ** (1.0 / q) * single.value
    return {
        "epsilon": eps,
        "pair_constant": pair.value,
        "single_constant": single.value,
        "probe_constant": c_probe,
        "bound_chain": bound_chain,
        "within_factor_two": bool(pair.value <= 2.0 * bound_chain),
        "finite": bool(math.isfinite(pair.value)),
    }
