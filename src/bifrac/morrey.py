"""Discrete Morrey norms over finite cube families.

The norm is computed as max over the family of |Q|^{1/p0} (avg_Q |f|^q)^{1/q},
algebraically identical to |Q|^{1/p0 - 1/q} ||f chi_Q||_q but numerically
stabler; scalar and vector norms are the max of one `weights._cube_values`,
which reads +inf where an average vanishes on a cube where another is +inf.
These are under-approximations of the continuum suprema; comparisons always
run both sides over the same family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExponentOrder
from .families import CubeFamily
from .geometry import Cube
from .lattice import GridFunction
from .weights import _cube_values, _top


@dataclass(frozen=True)
class MorreyParams:
    """Outer exponent p0 and inner exponent q with 0 < q <= p0."""

    p0: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.q <= self.p0):
            raise ExponentOrder(f"need 0 < q <= p0, got q={self.q}, p0={self.p0}")


def _morrey_top(f: GridFunction, params: MorreyParams, family: CubeFamily) -> tuple[float, int]:
    """The norm and the family index of a cube that attains it."""
    family.require_nonempty()
    return _top(_cube_values(family, [(f.abs_pow(1.0), params.q, 1.0 / params.q)], 1.0 / params.p0)[0])


def morrey_norm(f: GridFunction, params: MorreyParams, family: CubeFamily) -> float:
    """max over the family of |Q|^{1/p0 - 1/q} (int_Q |f|^q)^{1/q}."""
    return _morrey_top(f, params, family)[0]


def morrey_norm_witness(f: GridFunction, params: MorreyParams, family: CubeFamily) -> tuple[float, Cube]:
    """`morrey_norm` and a cube of the family that attains it."""
    value, k = _morrey_top(f, params, family)
    return value, family.cube(k)


def vector_morrey_norm(
    f1: GridFunction,
    f2: GridFunction,
    p0: float,
    p1: float,
    p2: float,
    family: CubeFamily,
) -> float:
    """max over Q of |Q|^{1/p0} prod_i ((1/|Q|) int_Q |f_i|^{p_i})^{1/p_i}."""
    family.require_nonempty()
    if not (p1 > 0 and p2 > 0):
        raise ExponentOrder("component exponents must be positive")
    factors = [(f1.abs_pow(1.0), p1, 1.0 / p1), (f2.abs_pow(1.0), p2, 1.0 / p2)]
    return _top(_cube_values(family, factors, 1.0 / p0)[0])[0]


def power_scaling_check(
    f: GridFunction, p0: float, q: float, ell: float, family: CubeFamily
) -> tuple[float, float]:
    """Both sides of ||f^ell||^{1/ell} with scaled exponents vs ||f||.

    The per-cube quantities are algebraically identical, so the two
    returned values agree to rounding.
    """
    if not (1.0 < ell < q):
        raise ExponentOrder(f"need 1 < ell < q, got ell={ell}, q={q}")
    lhs = morrey_norm(
        f.abs_pow(ell), MorreyParams(p0 / ell, q / ell), family
    ) ** (1.0 / ell)
    rhs = morrey_norm(f, MorreyParams(p0, q), family)
    return lhs, rhs
