"""Numerical toolkit for bilinear fractional integrals on lattice data.

Modules
-------
lattice    sampled step functions, exact cell integration, grid file IO
geometry   half-open cubes, shifted dyadic grids, the cube locator
families   finite cube and nested-pair families for discrete suprema
sparse     stopping-time selection of cubes with large bilinear averages
operators  singular-kernel integral operators and maximal functions
weights    weight-class constants over cube and pair families
morrey     discrete Morrey norms
harness    scenario corpora and the verification protocols
cli        command-line front end
"""

from .errors import (
    AlphaOutOfRange,
    BifracError,
    ConfigInvalid,
    ConjugateMismatch,
    DegenerateCube,
    EmptyCubeFamily,
    ExponentOrder,
    InfiniteConstant,
    InputUnreadable,
    LevelAbsent,
    LevelTooCoarse,
    NonAlignedCube,
    NonNegativityViolation,
    NonPositiveWeight,
    NotInGrid,
    OutOfBox,
    POutOfRange,
    RelationViolated,
    SpecMismatch,
)
from .families import (
    CubeFamily,
    NestedPairs,
    all_intervals,
    default_family,
    family_from_cubes,
    nested_pairs,
)
from .geometry import (
    Cube,
    DyadicGrid,
    dilate,
    dyadic_children,
    dyadic_parent,
    grid_cubes,
    locate_shifted_cubes,
    locate_shifted_dyadic,
)
from .harness import (
    CorpusItem,
    ExponentProfile,
    Report,
    SplitMix64,
    catalog_profiles,
    small_exponent_chain_check,
    corpus,
    dilate_item,
    domination_ratio,
    global_term_ratio,
    make_profile,
    profile_violations,
    run_verify,
    verify_inequality,
    verify_pointwise_domination,
    verify_structural,
)
from .lattice import (
    GridFunction,
    GridSpec,
    bilinear_average,
    cube_average,
    integrate,
    lp_norm,
    read_grid_file,
    write_grid_file,
)
from .morrey import (
    MorreyParams,
    morrey_norm,
    morrey_norm_witness,
    power_scaling_check,
    vector_morrey_norm,
)
from .operators import (
    KernelTable,
    bi_frac,
    bi_frac_at,
    frac_int,
    frac_int_at,
    frac_maximal,
    kernel_table,
    local_global_split,
    maximal,
    multi_frac_int,
    multi_frac_int_at,
    multi_maximal,
    p_maximal,
    sparse_bound,
    weighted_bilinear_maximal,
)
from .sparse import SparseFamily, SelectedCube, cz_decompose, level_union_measure
from .weights import (
    ConstantReport,
    WeightVector,
    ap_constant,
    apq_constant,
    iida_constant,
    multiple_apq_constant,
    reverse_holder_probe,
    two_weight_constant,
)

__version__ = "0.1.0"
