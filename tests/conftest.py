import numpy as np
import pytest
from hypothesis import settings

from bifrac import Cube, DyadicGrid, GridFunction, GridSpec, all_intervals
from bifrac.weights import _family_power_averages, conjugate

# One profile for every property test: the same examples on every run and
# no per-example deadline.  Tests set only their own max_examples.
settings.register_profile("bifrac", derandomize=True, deadline=None)
settings.load_profile("bifrac")


@pytest.fixture(scope="session")
def spec32():
    return GridSpec(1, 1.0, 32)


@pytest.fixture(scope="session")
def spec64():
    return GridSpec(1, 4.0, 64)


@pytest.fixture(scope="session")
def spec2d():
    return GridSpec(2, 1.0, 8)


@pytest.fixture(scope="session")
def intervals32(spec32):
    return all_intervals(spec32)


@pytest.fixture(scope="session")
def grid1d():
    return DyadicGrid((0.0,))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_positive(spec, rng, low=0.2, high=1.5):
    return GridFunction(
        spec, rng.uniform(low, high, spec.shape), nonnegative=True
    )


@pytest.fixture(scope="session")
def unit_cube():
    return Cube((0.0,), 1.0)


def enumerate_nested_pairs(family):
    """Every aligned pair Q ⊆ Q' of family as (inner, outer) index arrays,
    outer-major: the slow oracle for NestedPairs, which never lists pairs."""
    ali = np.nonzero(family.aligned)[0]
    lo = family.lo[ali]
    hi = family.hi[ali]
    inner_parts = []
    outer_parts = []
    for pos, k in enumerate(ali):
        inside = np.all(lo >= lo[pos], axis=1) & np.all(hi <= hi[pos], axis=1)
        idx = ali[np.nonzero(inside)[0]]
        inner_parts.append(idx)
        outer_parts.append(np.full(len(idx), k, dtype=np.int64))
    inner = np.concatenate(inner_parts) if inner_parts else np.zeros(0, np.int64)
    outer = np.concatenate(outer_parts) if outer_parts else np.zeros(0, np.int64)
    return inner, outer


def enumerated_pair_values(lead, wv, q0, q, p1, p2, family, r0=None):
    """(inner, outer, value) per enumerated pair of the iida (lead = w1 w2) or
    two-weight (lead = v) integrand; the pair constant is the max of value."""
    inner, outer = enumerate_nested_pairs(family)
    meas = family.measures
    with np.errstate(invalid="ignore"):
        inner_lead = _family_power_averages(lead, q, family) ** (1.0 / q)
        cp1, cp2 = conjugate(p1), conjugate(p2)
        outer_1 = _family_power_averages(wv.w1, -cp1, family) ** (1.0 / cp1)
        outer_2 = _family_power_averages(wv.w2, -cp2, family) ** (1.0 / cp2)
        vals = (
            (meas[inner] / meas[outer]) ** (1.0 / q0)
            * inner_lead[inner]
            * outer_1[outer]
            * outer_2[outer]
        )
        if r0 is not None:
            vals = vals * meas[outer] ** (1.0 / r0)
    return inner, outer, np.where(np.isnan(vals), np.inf, vals)
