"""Exception types shared across the toolkit.

Every module raises one of these named errors so callers (and the CLI,
which prints the class name to stderr) can react to the failure kind
without parsing messages.
"""

from __future__ import annotations


class BifracError(Exception):
    """Base class for all toolkit errors."""


class NonAlignedCube(BifracError):
    """Cube corners or side do not sit on lattice cell boundaries."""


class OutOfBox(BifracError):
    """Cube is not contained in the sampling box."""


class DegenerateCube(BifracError):
    """Cube has no measure on the lattice."""


class ConjugateMismatch(BifracError):
    """Exponents r, s fail 1/r + 1/s = 1 beyond tolerance."""


class SpecMismatch(BifracError):
    """Operands live on different grid specs."""


class AlphaOutOfRange(BifracError):
    """Order parameter outside the operator's admissible interval."""


class POutOfRange(BifracError):
    """Integrability exponent outside the admissible range."""


class NotInGrid(BifracError):
    """Cube is not a member of the given dyadic grid."""


class AverageOverflow(BifracError):
    """A cube average, a kernel sum or a point value leaves the float range where a finite value is needed."""


class NonNegativityViolation(BifracError):
    """Function declared or required nonnegative has a negative sample."""


class NonPositiveWeight(BifracError):
    """Weight has a zero or negative sample where positivity is required."""


class EmptyCubeFamily(BifracError):
    """Supremum requested over an empty cube family."""


class ExponentOrder(BifracError):
    """Exponent pair violates the required ordering (e.g. q > p0)."""


class RelationViolated(BifracError):
    """One or more exponent relations of a profile fail.

    Carries the list of violated relations as human-readable strings.
    """

    def __init__(self, relations: list[str]):
        self.relations = list(relations)
        super().__init__("; ".join(self.relations))


class InfiniteConstant(BifracError):
    """A weight constant hit the +inf sentinel; hypothesis not satisfied."""


class ConfigInvalid(BifracError):
    """Run configuration failed validation."""


class InputUnreadable(BifracError):
    """Input file missing or malformed."""
