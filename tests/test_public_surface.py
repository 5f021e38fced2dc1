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
KEEP does.  A method name that another package class also defines (as a
method, a field or a self. attribute) cannot be traced to one class by this
scan, so SHARED lists each such name by hand, with the package call that
reaches each class's method; the test fails when a shared name is missing
from SHARED or an entry there is no longer shared.

A private module-level function, and a private method (not a dunder), must
be referenced in the package outside its own definition: one that only tests
call, or that a change left behind, is deleted.

A parameter with a default, of any function or method in the package, must
take at least two values in the same files.  A call passes it by keyword,
by position, or through *args or **kwargs, which may carry any value; calls
are matched to the definition by name, as above (a class name calls its
__init__, or a dataclass's fields in order).  The values in use are the
constants the calls pass (a literal, a module CONSTANT or a Class.MEMBER),
plus the default wherever a call leaves the parameter out; any other
expression counts as a second value.  perfbench/tracing.py binds arguments
by name, so there a string constant equal to the parameter's name counts as
a call that sets it.  A parameter with one value in use is a constant, and
is deleted, unless PARAM_KEEP lists it with the test that pins a statement
of the paper on it.

A dataclass field must be read as an attribute (an AST Attribute) in the
same files, unless the class is written out whole, by its field names
(WHOLE), or FIELD_KEEP lists the field with its test.  As with methods, a
field name that another package class also defines (as a field, a method or
property, or a self. attribute) cannot be traced to one class by this scan,
so SHARED_FIELDS lists each such name by hand, with the package read that
reaches each class's field; the classes in WHOLE are exempt.  The test fails
when a shared field name is missing from SHARED_FIELDS or an entry there is
no longer shared.

A dataclass must hold at least two fields.  A class that holds one value is
that value, which every caller would unwrap at once: it is deleted, and its
callers take the value itself.  The only exceptions are the classes in
WRAPPER_KEEP, each named with the isinstance check in the package that
dispatches on its type.

Each file is parsed once, and every check reads that parse.  The last tests
run the method, parameter, field, shared-field and wrapper audits on a small
package of their own, to show that each catches what it is for and passes
what it should.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boxqft"
FILES = sorted(PACKAGE.glob("*.py"))
BENCH = [ROOT / "perfbench" / name for name in ("workloads.py", "tracing.py")]

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

PARAM_KEEP = {
    **{f"cmd_{cmd}.out": "the acceptance test runs the command without writing "
                         f"artifacts (test_acceptance.py::{test})"
       for cmd, test in (
           ("sagnac", "test_criterion_1_eigenstate_property"),
           ("noiseless", "test_criterion_3_noiseless_vacuum_and_suppression"),
           ("suppression", "test_criterion_3_noiseless_vacuum_and_suppression"),
           ("fdt", "test_criterion_4_fdt"),
           ("threepoint", "test_criterion_7_threepoint_values"),
           ("wick_check", "test_criterion_8_wick_oracle"),
           ("homodyne", "test_criterion_9_homodyne"))},
    "ordering_average.engine": "Keldysh and fully symmetrized orderings agree "
                               "for the Wick engine and the exact oracle alike "
                               "(test_correlators.py::"
                               "test_ordering_keldysh_equals_symmetrized_two_point)",
    "KeldyshPropagator.rational_value.eps": "the cq descriptor's p0 - i*eps "
                                            "prescription (test_correlators.py::"
                                            "test_keldysh_scalar_propagator_descriptors)",
    "SpectrumDescriptor.tensor_prefactor.mu": "the current prefactor is transverse "
                                              "in both indices (test_spectral.py::"
                                              "test_massless_spectrum_supports)",
    "SpectrumDescriptor.tensor_prefactor.nu": "the current prefactor is transverse "
                                              "in both indices (test_spectral.py::"
                                              "test_massless_spectrum_supports)",
    "lehmann_spectral_density.delta_omega": "isolated lines are stable under bin "
                                            "halving (test_spectral.py::"
                                            "test_bin_halving_stability)",
    "ModeGrid.v_c": "noiseless readout on the effective cone |p0| < v_c |p| "
                    "(test_integration.py::"
                    "test_fermi_velocity_parameterization_noiseless)",
    "SagnacConfig.phase": "a pi arm phase flips the signal's sign "
                          "(test_integration.py::test_sagnac_phase_parameter)",
}

FIELD_KEEP = {
    "SpectralSample.dominant_weight": "the dominant Boltzmann weight of the "
                                      "suppression bound (test_spectral.py::"
                                      "test_single_mode_support_structure)",
    "NoiselessComponents.vector_indices": "the noiseless components in the "
                                          "canonical frame (test_tensors.py::"
                                          "test_noiseless_components_lists)",
    "NoiselessComponents.tensor_combinations": "the noiseless components in the "
                                               "canonical frame (test_tensors.py::"
                                               "test_noiseless_components_lists)",
}

# one-field dataclasses whose type the package dispatches on
WRAPPER_KEEP = {
    "StateVector": "measurement.moments and fock.expectation, "
                   "isinstance(state, StateVector)",
    "DensityOperator": "measurement.moments and fock.expectation, "
                       "isinstance(state, DensityOperator)",
}

# classes whose every field is written out, by name, as an artifact column
WHOLE = {
    "CheckRecord": "cli.RunReport.to_json and write_csv, asdict and astuple",
    "RegressionRow": "cli.cmd_sagnac's sagnac_regression.csv, astuple",
}

# name -> {class: the package call that reaches that class's method}
SHARED = {
    "diagonal": {"Operator": "measurement._moment_diagonals, mat.diagonal(), "
                             "and fock.expectation, operator.diagonal()"},
    "dim": {"DensityOperator": "fock.expectation, state.dim"},
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
    "modes": {"ModeGrid": "fock.FockSpace.__init__, grid.modes"},
    "passed": {"RunReport": "cli._run, report.passed"},
    "volume": {"ModeGrid": "fock.FockSpace.__init__, "
                           "self.channels[0][1].volume"},
}

# field name -> {class: the package read that reaches that class's field}
SHARED_FIELDS = {
    "beta": {
        "CTPPropagator": "correlators.CTPPropagator.annihilator_later_factor, "
                         "self.beta",
        "SpectralSample": "cli.cmd_fdt's fdt_samples.csv, s.beta",
    },
    "col": {"LineSpectrum": "spectral.lehmann_spectral_density, lines.col"},
    "diagonal": {"DensityOperator": "measurement.moments and fock.expectation, "
                                    "state.diagonal"},
    "energy": {
        "CTPPropagator": "correlators.CTPPropagator.annihilator_later_factor, "
                         "self.energy",
        "Insertion": "correlators._pair_value, a.energy",
    },
    "expected": {"NoiseExponentFit": "cli.cmd_scaling, fit.expected"},
    "mass": {
        "KeldyshPropagator": "correlators.KeldyshPropagator.rational_value, "
                             "self.mass",
        "ModeGrid": "fock.ModeGrid.energy, self.mass",
        "SagnacConfig": "measurement.sagnac_readout, cfg.mass",
    },
    "n": {"Mode": "fock.FockSpace.__init__'s mode_index, m.n"},
    "observable": {"LocalizationRow": "cli.cmd_homodyne, widest.observable"},
    "phase": {
        "HomodyneConfig": "measurement.homodyne_difference, cfg.phase",
        "SagnacConfig": "fock.sagnac_state, config.phase",
    },
    "row": {"LineSpectrum": "spectral.lehmann_spectral_density, lines.row"},
    "species": {
        "CTPPropagator": "correlators.CTPPropagator.zeta, self.species",
        "Insertion": "correlators._pair_value, a.species",
        "ModeGrid": "fock.ModeGrid.excludes_zero_mode, self.species",
        "SagnacConfig": "fock.sagnac_state, config.species",
    },
    "t": {
        "CTPTime": "correlators.free_propagator, t_dag.t",
        "FourVector": "spectral.lehmann_spectral_density, p.t",
    },
    "value": {"LineSpectrum": "spectral.lehmann_spectral_density, lines.value"},
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


def _unused_public_methods():
    refs = _references(attributes_only=True)
    return [f"{cls}.{name}" for module, cls, name, node in _public_methods()
            if f"{cls}.{name}" not in METHOD_KEEP
            and not _callers(refs, module, node)]


def test_every_public_method_is_used_or_kept():
    assert _unused_public_methods() == []


def test_shared_method_names_are_checked_by_hand():
    # a shared name hides an unused method behind a read of another class's
    # member of the same name
    definers = _definitions()
    owners = {}
    for _, cls, name, _ in _public_methods():
        if len(definers[name]) > 1:
            owners.setdefault(name, set()).add(cls)
    assert {name: set(table) for name, table in SHARED.items()} == owners


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


def _constant(node):
    """A hashable key for a constant expression: a literal, a module
    CONSTANT or a Class.MEMBER; None for any other expression."""
    if isinstance(node, ast.Name) and node.id.isupper() or \
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id[:1].isupper():
        return "name", ast.unparse(node)
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value).__name__, repr(value)


def _is_dataclass(cls):
    names = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(n, ast.Name) and n.id == "dataclass" for n in names)


def _dataclass_fields(cls):
    """The field declarations of a dataclass, in order."""
    return [node for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def _dataclasses():
    for path in FILES:
        for cls in _tree(path).body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                yield cls


def _signatures():
    """(owner, call name, [(param, default or None, position)]) for every
    function and method in the package, and for every dataclass, whose
    constructor takes its fields.  position is the index of the argument
    that passes the parameter in a call, which passes no self or cls; None
    for a keyword-only parameter."""
    for cls in _dataclasses():
        yield cls.name, cls.name, [(f.target.id, f.value, i)
                                   for i, f in enumerate(_dataclass_fields(cls))]
    for path in FILES:
        tree = _tree(path)
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = parent[node] if isinstance(parent[node], ast.ClassDef) else None
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
            skipped = 1 if cls and not static else 0
            params = [(arg.arg, d, i - skipped) for i, (arg, d)
                      in enumerate(zip(positional, defaults))]
            params += [(arg.arg, d, None)
                       for arg, d in zip(a.kwonlyargs, a.kw_defaults)]
            owner = f"{cls.name}.{node.name}" if cls else node.name
            name = cls.name if cls and node.name == "__init__" else node.name
            yield owner, name, params


@functools.lru_cache(maxsize=None)
def _calls():
    """call name -> [ast.Call] in the package but __init__.py, and perfbench."""
    calls = {}
    for path in [p for p in FILES if p.name != "__init__.py"] + BENCH:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    func.id if isinstance(func, ast.Name) else None
                calls.setdefault(name, []).append(node)
    return calls


def _values_in_use(name, param, default, index):
    """The constant keys a parameter takes over every call by name, with the
    default's where a call leaves it out; None when a call may pass another
    value.  index is the parameter's position in a call, or None."""
    values = set()
    for call in _calls().get(name, ()):
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            return None
        passed = [k.value for k in call.keywords if k.arg == param]
        if index is not None and index < len(call.args):
            passed.append(call.args[index])
        if not passed:
            values.add(_constant(default) or ("default", ast.dump(default)))
        for node in passed:
            if _constant(node) is None:
                return None
            values.add(_constant(node))
    return values


@functools.lru_cache(maxsize=None)
def _one_value_parameters():
    """owner.param for every defaulted parameter with at most one value in
    use."""
    bench_strings = {node.value for path in BENCH for node in ast.walk(_tree(path))
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    flagged = []
    for owner, name, params in _signatures():
        for param, default, index in params:
            if default is None or param in bench_strings:
                continue
            values = _values_in_use(name, param, default, index)
            if values is not None and len(values) <= 1:
                flagged.append(f"{owner}.{param}")
    return tuple(flagged)


def _unread_fields():
    """Class.field for every dataclass field that no Attribute reads, but
    in the classes written out whole."""
    refs = _references(attributes_only=True)
    return [f"{cls.name}.{f.target.id}" for cls in _dataclasses()
            if cls.name not in WHOLE
            for f in _dataclass_fields(cls) if f.target.id not in refs]


def test_every_defaulted_parameter_takes_two_values_or_is_kept():
    assert [name for name in _one_value_parameters() if name not in PARAM_KEEP] == []


def test_param_keep_list_has_one_value_in_use():
    # a kept parameter that a call starts to set no longer needs its entry
    assert sorted(set(PARAM_KEEP) - set(_one_value_parameters())) == []


def test_every_dataclass_field_is_read_or_kept():
    assert [name for name in _unread_fields() if name not in FIELD_KEEP] == []


def test_field_keep_list_is_unread():
    # a kept field that code starts to read no longer needs its entry
    assert sorted(set(FIELD_KEEP) - set(_unread_fields())) == []


def test_whole_classes_are_written_out_by_field_name():
    # dataclasses.fields(cls) names the columns every field is written to
    named = {node.args[0].id for path in FILES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "fields" and isinstance(node.args[0], ast.Name)}
    assert set(WHOLE) <= named & {cls.name for cls in _dataclasses()}


def _definitions():
    """name -> the package classes that define it: as a class-level field
    or attribute, a method or property, or a self. attribute."""
    owners = {}
    for path in FILES:
        for cls in _tree(path).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [node.name for node in cls.body
                     if isinstance(node, ast.FunctionDef)]
            names += [target.id for node in cls.body
                      if isinstance(node, (ast.AnnAssign, ast.Assign))
                      for target in (node.targets if isinstance(node, ast.Assign)
                                     else [node.target])
                      if isinstance(target, ast.Name)]
            names += [node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"]
            for name in names:
                owners.setdefault(name, set()).add(cls.name)
    return owners


def _shared_fields():
    """field name -> the dataclasses, but those in WHOLE, whose field of
    that name another package class also defines."""
    owners = _definitions()
    shared = {}
    for cls in _dataclasses():
        if cls.name not in WHOLE:
            for f in _dataclass_fields(cls):
                if len(owners[f.target.id]) > 1:
                    shared.setdefault(f.target.id, set()).add(cls.name)
    return shared


def test_shared_field_names_are_checked_by_hand():
    # a shared name hides an unread field behind a read of another class's
    # member of the same name
    assert {name: set(table) for name, table in SHARED_FIELDS.items()} \
        == _shared_fields()


def _wrappers():
    """Every dataclass with fewer than two fields."""
    return [cls.name for cls in _dataclasses() if len(_dataclass_fields(cls)) < 2]


def test_every_dataclass_holds_two_fields_or_is_kept():
    assert [name for name in _wrappers() if name not in WRAPPER_KEEP] == []


def test_wrapper_keep_classes_hold_one_field_and_are_dispatched_on():
    # a kept wrapper that gains a field, or that nothing dispatches on any
    # more, no longer needs its entry
    checked = set()
    for path in FILES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance":
                kinds = node.args[1]
                checked.update(n.id for n in getattr(kinds, "elts", [kinds])
                               if isinstance(n, ast.Name))
    assert set(WRAPPER_KEEP) <= set(_wrappers()) & checked


# The audits above, run on a small package of their own: a clean one that
# passes all three, and edits of it that each audit must catch or let pass.

TOY_PACKAGE = '''\
from dataclasses import dataclass


@dataclass
class Reading:
    value: float
    scale: float


class Probe:
    def __init__(self, gain=1.0):
        self.gain = gain

    def read(self, x, offset=0.0):
        return Reading(self.gain * x + offset, 2.0)


def measure(x, probe=None, repeats=1):
    probe = probe or Probe(2.0)
    return sum(probe.read(x, offset=0.5 * k).value * probe.read(x).scale
               for k in range(repeats))
'''

TOY_WORKLOADS = '''\
from toy import Probe, measure


def workload(n):
    return measure(float(n), Probe(), repeats=n)
'''

# a parameter that no call sets
ADD_EXACT = ("toy.py", "def __init__(self, gain=1.0):",
             "def __init__(self, gain=1.0, exact=False):")


@pytest.fixture
def toy_audit(tmp_path, monkeypatch):
    """Point the audits at the toy package with some (file, old, new) edits,
    and return (unused public methods, one-value parameters, unread fields,
    one-field dataclasses, shared field names as Class.field)."""

    def clear():
        for cached in (_tree, _references, _calls, _one_value_parameters):
            cached.cache_clear()

    def audit(*edits, outside=""):
        sources = {"toy.py": TOY_PACKAGE, "workloads.py": TOY_WORKLOADS,
                   "run.py": outside}
        for name, old, new in edits:
            assert old in sources[name]
            sources[name] = sources[name].replace(old, new)
        for name, text in sources.items():
            (tmp_path / name).write_text(text)
        # run.py is written but, like perfbench/run.py, not audited
        monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
        monkeypatch.setitem(globals(), "FILES", [tmp_path / "toy.py"])
        monkeypatch.setitem(globals(), "BENCH", [tmp_path / "workloads.py"])
        clear()
        return _unused_public_methods(), list(_one_value_parameters()), \
            _unread_fields(), _wrappers(), \
            sorted(f"{cls}.{name}" for name, classes in _shared_fields().items()
                   for cls in classes)

    yield audit
    clear()


def test_the_audits_pass_a_package_that_uses_everything(toy_audit):
    assert toy_audit() == ([], [], [], [], [])


@pytest.mark.parametrize("edits,outside,want", [
    ([ADD_EXACT], "", ([], ["Probe.__init__.exact"], [], [], [])),
    ([("toy.py", "offset=0.5 * k", "offset=0.25"),
      ("toy.py", "probe.read(x).scale", "probe.read(x, 0.25).scale")],
     "", ([], ["Probe.read.offset"], [], [], [])),
    ([("toy.py", "scale: float\n", "scale: float\n    note: str\n"),
      ("toy.py", "offset, 2.0)", 'offset, 2.0, "toy")')],
     "", ([], [], ["Reading.note"], [], [])),
    # Probe's self.gain reads hide that Reading.gain is never read
    ([("toy.py", "scale: float\n", "scale: float\n    gain: float\n"),
      ("toy.py", "offset, 2.0)", "offset, 2.0, self.gain)")],
     "", ([], [], [], [], ["Reading.gain"])),
    ([("toy.py", "    scale: float\n", ""),
      ("toy.py", "offset, 2.0)", "offset)"),
      ("toy.py", "probe.read(x).scale", "2.0")],
     "", ([], [], [], ["Reading"], [])),
    ([("toy.py", "        self.gain = gain\n",
       "        self.gain = gain\n\n    def trace(self):\n        return self.gain\n")],
     "def main(args):\n    return args.trace\n",
     (["Probe.trace"], [], [], [], [])),
], ids=["unused-default", "one-literal-in-every-call", "unread-field",
        "unread-field-behind-a-shared-name", "one-field-wrapper",
        "method-read-only-outside-the-audited-files"])
def test_the_audits_catch_each_kind_of_unused_option(toy_audit, edits, outside,
                                                      want):
    assert toy_audit(*edits, outside=outside) == want


@pytest.mark.parametrize("edit", [
    ("toy.py", "Probe(2.0)", "Probe(2.0, exact=True)"),
    ("toy.py", "Probe(2.0)", "Probe(2.0, True)"),
    ("toy.py", "Probe(2.0)", "Probe(**{'gain': 2.0})"),
    ("toy.py", "Probe(2.0)", "Probe(2.0, exact=x > 0)"),
    ("workloads.py", "def workload", 'BOUND = ("exact",)\n\n\ndef workload'),
], ids=["keyword", "position", "double-star", "computed-value",
        "perfbench-string"])
def test_a_parameter_set_to_a_second_value_passes(toy_audit, edit):
    # Probe() leaves exact at its default; each edit sets another value
    assert toy_audit(ADD_EXACT, edit) == ([], [], [], [], [])


def test_the_audits_read_no_perfbench_runner():
    # run.py reads only boxqft.__file__; its argparse attributes would hide
    # unused methods of the same names
    assert [path.name for path in BENCH] == ["workloads.py", "tracing.py"]
