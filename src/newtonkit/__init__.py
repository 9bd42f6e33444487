"""Exact-arithmetic root data, Kottwitz sets, Newton slope profiles and
p-adic Hecke normalizations, with brute-force oracles for every formula."""

from .rootdata import (
    RootDatum,
    RationalCocharacter,
    build_datum,
    product_datum,
    fundamental_weights,
    fundamental_coweight,
    fundamental_coweights,
    highest_root,
    special_roots,
    is_dominant,
    dominant_representative,
)
from .kottwitz import (
    KottwitzElement,
    KottwitzSet,
    galois_average,
    is_in_bgmu,
    enumerate_bgmu,
    newton_leq,
    maximal_elements,
    minuscule_coweights,
)
from .muordinary import (
    SlopeProfile,
    DegreeData,
    profile_from_newton,
    degrees,
    max_degree_bound,
    check_uniqueness,
    next_to_max_profile,
    modified_degrees,
)
from .hecke import (
    HeckeValuation,
    filtration_element,
    m_epsilon_valuation,
    lambda_g_valuation,
    epsilon_prime_valuations,
    n_g_constant,
    c_constant,
    hasse_number,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
