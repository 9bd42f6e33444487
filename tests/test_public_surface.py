import ast
import json
from pathlib import Path

import pytest
from conftest import fresh_python

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


# Run in a fresh interpreter, where no layer is loaded before the first read.
_RESOLVES = """
import json, sys, types
import newtonkit
assert set(newtonkit.__all__) <= set(dir(newtonkit))
namespace = {}
exec("from newtonkit import *", namespace)
for name in newtonkit.__all__:
    value = getattr(newtonkit, name)
    assert value is namespace[name], name
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"newtonkit.{name}"], name
    else:
        assert value.__module__.startswith("newtonkit."), name
        assert value is getattr(sys.modules[value.__module__], name), name
print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
"""


def test_every_public_name_resolves_to_its_layers_object():
    assert json.loads(fresh_python(_RESOLVES)) == PUBLIC


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        newtonkit.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from newtonkit import no_such_name


def test_a_submodule_import_binds_it_on_the_package():
    fresh_python("import newtonkit.oracles, newtonkit.verify\n"
                 "import newtonkit as nk\n"
                 "assert nk.oracles.convex_hull_membership and nk.verify.CHECKS")


# Four threads make their first newtonkit call at the same moment, each in a
# fresh interpreter: every one must see the whole layer, however the imports
# interleave.
_CONCURRENT = """
import json, sys, threading
import newtonkit as nk
sys.setswitchinterval(1e-6)
barrier, results = threading.Barrier(4), []

def strata():
    ks = nk.kottwitz.enumerate_bgmu(nk.fundamental_coweight(nk.build_datum("C", 3), 3))
    return sorted(str(e.nu.coords) for e in ks.elements)

def first_call():
    barrier.wait(timeout=60)
    try:
        results.append(strata())
    except Exception as exc:
        results.append(repr(exc))

threads = [threading.Thread(target=first_call) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
print(json.dumps([results, strata()]))
"""


@pytest.mark.parametrize("run", range(5))
def test_concurrent_first_reads_all_succeed(run):
    results, serial = json.loads(fresh_python(_CONCURRENT))
    assert len(serial) == 5 and results == [serial] * 4


# The layers each module imports at run time: module-level imports of
# newtonkit modules, outside "if TYPE_CHECKING:".  Imports inside a function
# (every layer cli runs, and the package's lazy names) are not edges of this
# graph.
LAYERS = {
    "__init__": set(),
    "cli": {"rationals"},
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
