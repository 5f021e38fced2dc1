"""Every public function, class, method and property of the package has a
job in the code.

A public module-level function or class in src/boxqft/*.py must be referenced
by identifier (an AST Name or Attribute, not a word in a docstring) outside
its own definition, in the package other than __init__.py or in perfbench/.
perfbench/tracing.py looks the functions it wraps up by name, so there a
string constant equal to the name counts too.  The only exceptions are the
names in KEEP, each of which pins a statement of the paper that a test
checks.  Any other name that only tests use re-expresses another public
call and is deleted.

A public method or property of a module-level class must likewise be
referenced outside its own definition, in the same files, but only by an
AST Attribute (or a perfbench string constant): a Name such as a dataclass
field declaration `dimension: int` is not a read of a method `.dimension`.
The exceptions are the methods in METHOD_KEEP, which pin paper statements as
KEEP does.  A method name that more than one package class defines cannot
be traced to one class by this scan, so SHARED lists each such name by hand,
with the package call that reaches each class's member; the test fails when
a shared name is missing from SHARED or an entry there is no longer shared.

A private module-level function, and a private method (not a dunder), must
be referenced in the package outside its own definition: one that only tests
call, or that a change left behind, is deleted.

Each file is parsed once, and every check reads that parse.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boxqft"
FILES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

KEEP = {
    "boost_tensor": "tensor correlations are frame independent "
                    "(test_tensors.py::test_canonical_boost_and_frame_independence)",
    "canonical_boost": "every space-like p boosts to (0, 0, 0, |p|) "
                       "(test_tensors.py::test_canonical_boost_and_frame_independence)",
    "dirac_field": "psi itself, which no density builder gives: the equal-time "
                   "anticommutator (test_fields.py::test_dirac_equal_time_anticommutator)",
    "keldysh_scalar_propagators": "the Keldysh cq/qq/+- descriptors "
                                  "(test_correlators.py::"
                                  "test_keldysh_scalar_propagator_descriptors)",
    "noiseless_components": "the tensor combinations that are noiseless at "
                            "space-like p (test_tensors.py::test_noiseless_components_lists)",
    "ordering_average": "Keldysh and fully symmetrized orderings agree on two-point "
                        "functions (test_correlators.py::"
                        "test_ordering_keldysh_equals_symmetrized_two_point)",
    "photon_signal": "the photon counter-propagating signal E*tau/2 "
                     "(test_measurement.py::test_photon_signals)",
    "free_hamiltonian": "H0, for int T00 dx = H0 and [H0, P] = 0 "
                        "(test_fock.py::test_hamiltonian_commutes_with_momentum)",
    "total_momentum": "P, for momentum conservation "
                      "(test_fock.py::test_hamiltonian_commutes_with_momentum)",
    "vacuum_state": "the vacuum |0>, whose space-like fluctuations the paper "
                    "finds noiseless (test_fields.py::test_scalar_two_point_single_mode)",
    "show_config": "the `boxqft show-config` subcommand, registered by its "
                   "decorator (test_cli.py::test_cli_show_config)",
}

METHOD_KEEP = {
    "SpectrumDescriptor.evaluate": "the massless spectrum vanishes at space-like "
                                   "p in every D (test_spectral.py::"
                                   "test_massless_spectrum_vanishes_spacelike)",
    "KeldyshPropagator.rational_value": "the Keldysh cq/qq/+- descriptors "
                                        "(test_correlators.py::"
                                        "test_keldysh_scalar_propagator_descriptors)",
    "KeldyshPropagator.on_shell_weight": "the Keldysh cq/qq/+- descriptors "
                                         "(test_correlators.py::"
                                         "test_keldysh_scalar_propagator_descriptors)",
}

# name -> {class: the package call that reaches that class's member}
SHARED = {
    "energy": {
        "ModeGrid": "fock.sagnac_state and correlators.insertion, grid.energy(n)",
        "SagnacConfig": "fock.sagnac_state and measurement.sagnac_readout, "
                        "config.energy",
    },
    "hermiticity_defect": {
        "QuadraticObservable": "the lattice-build Hermiticity gate of "
                               "perfbench/workloads.py, obs.hermiticity_defect()",
        "Operator": "QuadraticObservable.hermiticity_defect, "
                    "self.matrix().hermiticity_defect()",
    },
}


@functools.lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text())


def _public_definitions():
    """(module, name, node) for every public module-level def and class."""
    for path in FILES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path.stem, node.name, node


def _private_functions():
    """(module, name, node) for every private module-level function."""
    for path in FILES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                yield path.stem, node.name, node


def _methods():
    """(module, class, name, node) for every method and property of a
    module-level class."""
    for path in FILES:
        for cls in _tree(path).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        yield path.stem, cls.name, node.name, node


def _public_methods():
    return [m for m in _methods() if not m[2].startswith("_")]


@functools.lru_cache(maxsize=None)
def _references(with_bench=True, attributes_only=False):
    """name -> [(file, line)] of every Attribute (and, unless
    attributes_only, every Name) in the package but __init__.py and,
    with_bench, in perfbench/, and of every string constant in perfbench/."""
    files = [p for p in FILES if p.name != "__init__.py"]
    bench = BENCH if with_bench else []
    refs = {}
    for path in files + bench:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name) and not attributes_only:
                name = node.id
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and path in bench:
                name = node.value
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _callers(refs, module, node):
    """The references to node's name outside its own definition."""
    path, own = PACKAGE / f"{module}.py", range(node.lineno, node.end_lineno + 1)
    return [(p, line) for p, line in refs.get(node.name, ())
            if not (p == path and line in own)]


def test_every_public_name_is_used_or_kept():
    refs = _references()
    unused = [f"{module}.{name}" for module, name, node in _public_definitions()
              if name not in KEEP and not _callers(refs, module, node)]
    assert unused == []


def test_every_public_method_is_used_or_kept():
    refs = _references(attributes_only=True)
    unused = [f"{cls}.{name}" for module, cls, name, node in _public_methods()
              if f"{cls}.{name}" not in METHOD_KEEP
              and not _callers(refs, module, node)]
    assert unused == []


def test_shared_method_names_are_checked_by_hand():
    # a shared name hides an unused member behind a used one of the same name
    owners = {}
    for _, cls, name, _ in _public_methods():
        owners.setdefault(name, set()).add(cls)
    shared = {name: cls for name, cls in owners.items() if len(cls) > 1}
    assert {name: set(table) for name, table in SHARED.items()} == shared


def test_every_private_function_is_used_in_the_package():
    refs = _references(with_bench=False)
    unused = [f"{module}.{name}" for module, name, node in _private_functions()
              if not _callers(refs, module, node)]
    assert unused == []


def test_every_private_method_is_used_in_the_package():
    refs = _references(with_bench=False, attributes_only=True)
    unused = [f"{cls}.{name}" for module, cls, name, node in _methods()
              if name.startswith("_") and not name.endswith("__")
              and not _callers(refs, module, node)]
    assert unused == []


def test_keep_list_names_exist_and_have_no_caller():
    # a kept name that code starts to use no longer needs its entry
    refs = _references()
    defined = {name: (module, node) for module, name, node in _public_definitions()}
    assert set(KEEP) <= set(defined)
    assert [name for name in KEEP if _callers(refs, *defined[name])] == []


def test_method_keep_list_exists_and_has_no_caller():
    # a kept method that code starts to use no longer needs its entry
    refs = _references(attributes_only=True)
    defined = {f"{cls}.{name}": (module, node)
               for module, cls, name, node in _public_methods()}
    assert set(METHOD_KEEP) <= set(defined)
    assert [name for name in METHOD_KEEP if _callers(refs, *defined[name])] == []
