"""Every public function and class of the package has a job in the code.

A public module-level function or class in src/boxqft/*.py must be referenced
by identifier (an AST Name or Attribute, not a word in a docstring) outside
its own definition, in the package other than __init__.py or in perfbench/.
perfbench/tracing.py looks the functions it wraps up by name, so there a
string constant equal to the name counts too.  The only exceptions are the
names in KEEP, each of which pins a statement of the paper that a test
checks.  Any other name that only tests use re-expresses another public
call and is deleted.

A private module-level function must likewise be referenced in the package
outside its own definition: one that only tests call, or that a change left
behind, is deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boxqft"

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


def _public_definitions():
    """(module, name, node) for every public module-level def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path.stem, node.name, node


def _private_functions():
    """(module, name, node) for every private module-level function."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                yield path.stem, node.name, node


def _references(with_bench=True):
    """name -> [(file, line)] of every Name and Attribute in the package
    (but __init__.py) and, with_bench, in perfbench/, and of every string
    constant in perfbench/."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((ROOT / "perfbench").glob("*.py")) if with_bench else []
    refs = {}
    for path in files + bench:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
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


def test_every_private_function_is_used_in_the_package():
    refs = _references(with_bench=False)
    unused = [f"{module}.{name}" for module, name, node in _private_functions()
              if not _callers(refs, module, node)]
    assert unused == []


def test_keep_list_names_exist_and_have_no_caller():
    # a kept name that code starts to use no longer needs its entry
    refs = _references()
    defined = {name: (module, node) for module, name, node in _public_definitions()}
    assert set(KEEP) <= set(defined)
    assert [name for name in KEEP if _callers(refs, *defined[name])] == []
