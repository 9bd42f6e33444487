import newtonkit

# Every public name of the package: the paper's objects and the functions
# that build and check them.  A name leaves this list only with its callers.
PUBLIC = [
    "DegreeData", "HeckeValuation", "KottwitzElement", "KottwitzSet",
    "RationalCocharacter", "RootDatum", "SlopeProfile",
    "build_datum", "c_constant", "check_uniqueness", "degrees",
    "dominant_representative", "enumerate_bgmu", "epsilon_prime_valuations",
    "filtration_element", "fundamental_coweight", "fundamental_coweights",
    "fundamental_weights", "galois_average", "hasse_number", "hecke",
    "highest_root", "is_dominant", "is_in_bgmu", "kottwitz",
    "lambda_g_valuation", "linalg", "m_epsilon_valuation", "max_degree_bound",
    "maximal_elements", "minuscule_coweights", "modified_degrees", "muordinary",
    "n_g_constant", "newton_leq", "next_to_max_profile", "product_datum",
    "profile_from_newton", "rationals", "rootdata", "special_roots",
]


def test_the_public_surface_is_pinned():
    assert sorted(newtonkit.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(newtonkit, name), name
    # the benchmark builds its radicals from these two
    assert callable(newtonkit.hecke.gl_upper_roots)
    assert callable(newtonkit.hecke.siegel_radical_roots)
