import ast
from pathlib import Path

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


# The layers each module imports at run time: module-level imports of
# newtonkit modules, outside "if TYPE_CHECKING:".  Imports inside a function
# (cli's lazy oracles and verify) are not edges of this graph.
LAYERS = {
    "__init__": {"hecke", "kottwitz", "muordinary", "rootdata"},
    "cli": {"hecke", "kottwitz", "muordinary", "rationals", "rootdata"},
    "hecke": {"rationals"},
    "kottwitz": {"linalg", "rootdata"},
    "linalg": set(),
    "muordinary": {"rationals"},
    "oracles": {"rationals"},
    "rationals": set(),
    "rootdata": {"linalg", "rationals"},
    "verify": {"hecke", "kottwitz", "muordinary", "oracles", "rootdata"},
}


def _runtime_imports(body):
    found = set()
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.If) and ast.unparse(node.test) != "TYPE_CHECKING":
            found |= _runtime_imports(node.body + node.orelse)
    return found


def test_the_layer_graph_is_pinned():
    package = Path(newtonkit.__file__).parent
    graph = {path.stem: _runtime_imports(ast.parse(path.read_text(encoding="utf-8")).body)
             for path in package.glob("*.py")}
    assert graph == LAYERS
