"""Exact-arithmetic root data, Kottwitz sets, Newton slope profiles and
p-adic Hecke normalizations, with brute-force oracles for every formula."""

import importlib

# Each public name and the layer that defines it; a layer stands for itself.
# A name is imported on its first read (PEP 562), so a process loads only the
# layers it uses.
_LAYER = {
    **{layer: layer for layer in ("hecke", "kottwitz", "linalg", "muordinary",
                                  "rationals", "rootdata")},
    **dict.fromkeys((
        "RootDatum", "RationalCocharacter", "build_datum", "product_datum",
        "fundamental_weights", "fundamental_coweight", "fundamental_coweights",
        "highest_root", "special_roots", "is_dominant", "dominant_representative",
    ), "rootdata"),
    **dict.fromkeys((
        "KottwitzElement", "KottwitzSet", "galois_average", "is_in_bgmu",
        "enumerate_bgmu", "newton_leq", "maximal_elements", "minuscule_coweights",
    ), "kottwitz"),
    **dict.fromkeys((
        "SlopeProfile", "DegreeData", "profile_from_newton", "degrees",
        "max_degree_bound", "check_uniqueness", "next_to_max_profile", "modified_degrees",
    ), "muordinary"),
    **dict.fromkeys((
        "HeckeValuation", "filtration_element", "m_epsilon_valuation", "lambda_g_valuation",
        "epsilon_prime_valuations", "n_g_constant", "c_constant", "hasse_number",
    ), "hecke"),
}

__all__ = list(_LAYER)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the layer of name and keep the value in the package globals, so
    that later reads are plain dictionary hits."""
    layer = _LAYER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{layer}", __name__)
    value = module if name == layer else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
