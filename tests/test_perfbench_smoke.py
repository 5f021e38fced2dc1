"""The names and attributes the benchmark's tracer relies on.

perfbench/tracing.py wraps the layer functions by name and reads structural
counts off their results (``len(density.terms)``, ``matrix.nnz``,
``sample.term_count``).  This runs one small traced pass in a fresh process,
as the benchmark does, so a renamed builder or a density without ``terms``
fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, math
import tracing
from boxqft import correlators, fields, fock, measurement, spectral
from boxqft.spacetime import FourVector, ctp_time

tracer = tracing.Tracer()
tracing.install(tracer)
L = 2 * math.pi
grid = fock.ModeGrid(axes=(3,), lengths=(L,), ranges=((-2, 2),),
                     species=fock.Species.BOSON, mass=1.0)
space = fock.build_fock_space([("phi", grid)], 2, 2)
density = fields.stress_tensor_scalar(space, 0, 0)
p = FourVector(0.5, 0.0, 0.0, 2.0)
obs = measurement.spacelike_windowed_observable(
    density, p, measurement.MeasurementWindow(tau=L))
nnz = obs.matrix().nnz
sample = spectral.lehmann_spectral_density(space, density, density, p, 1.0)
# matrices and samples compose on the ladder table and realize no Operator;
# then each mode's first explicit call realizes its pair, in one span, and
# the second is a cache hit
composed_op_cache = len(space._op_cache)
for mode in space.modes:
    space.annihilation(mode.channel, mode.n)
    space.creation(mode.channel, mode.n)
metrics, calls = tracing.layer_metrics(tracer, [0], 1.0)
spans = [[s[0], s[5]] for s in tracer.spans]
# detailed balance at one p with nonzero lattice momentum, two betas
phi2 = fields.scalar_bilinear_density(space)
q = FourVector(1.0, 0.0, 0.0, 1.0)
fdt_spans = []
for beta in (0.5, 2.0):
    start = len(tracer.spans)
    spectral.fdt_ratio(space, phi2, q, beta)
    fdt_spans.append([s[0] for s in tracer.spans[start:]])
# the oracle on a fresh space: every ladder it realizes is a child span
cspace = fock.build_fock_space([("phi", grid)], 2, 2)
ins = [correlators.insertion(cspace, "phi", n, kind, ctp_time(b, t))
       for n, kind, b, t in (((1,), "a", 1, 0.2), ((-1,), "c", 0, 0.5),
                             ((-1,), "a", 1, 0.7), ((1,), "c", 0, 0.1))]
start = len(tracer.spans)
correlators.exact_contour_correlator(cspace, ins, 1.0)
oracle_spans = [[s[0], s[3] - start] for s in tracer.spans[start:]]
# the synthetic projector checks: one stacked call per projector
from boxqft import cli
start = len(tracer.spans)
cli._tensor_synthetic_checks(cli.RunReport("noiseless"),
                             cli.merge_config(None)["noiseless"], 5)
projector_spans = [s[0] for s in tracer.spans[start:]]
print(json.dumps({
    "spans": spans, "fdt_spans": fdt_spans, "oracle_spans": oracle_spans,
    "projector_spans": projector_spans,
    "oracle_op_cache": len(cspace._op_cache),
    "composed_op_cache": composed_op_cache,
    "metrics": {k: v["value"] for k, v in metrics.items()},
    "terms": len(density.terms), "kept": len(obs.terms), "nnz": nnz,
    "pairs": sample.term_count, "op_cache": len(space._op_cache),
    "n_modes": len(space.modes)}))
"""


def _traced_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_run():
    return _traced_pass()


def test_traced_pass_counts_match_the_objects(traced_run):
    run = traced_run
    spans = run["spans"]
    counters = {name: c for name, c in spans}
    assert {"fock.basis", "fock.ladder", "fields.density", "measurement.window",
            "fields.matrix", "spectral.lehmann"} <= set(counters)
    assert counters["fields.density"] == {"terms": run["terms"]}
    assert counters["measurement.window"] == {"scanned": run["terms"],
                                              "kept": run["kept"]}
    assert counters["spectral.lehmann"] == {"pairs": run["pairs"]}
    metrics = run["metrics"]
    assert metrics["fields.density_terms"] == run["terms"] > 0
    assert metrics["measurement.window_keep_ratio"] == run["kept"] / run["terms"]
    # the windowed matrix is the only one realized: the Lehmann sum builds
    # its lines from the block terms
    matrix_nnz = [c["nnz"] for name, c in spans if name == "fields.matrix"]
    assert matrix_nnz == [run["nnz"]]
    # the matrix and the sample realize no ladder Operator; then one span per
    # mode realized explicitly: the call builds a and a^+ together, so the
    # tracer's _op_cache test must see the second as a cache hit
    assert run["composed_op_cache"] == 0
    ladder = [name for name, _ in spans if name == "fock.ladder"]
    assert len(ladder) == run["op_cache"] // 2 == run["n_modes"] == 5


def test_fdt_ratio_realizes_no_block(traced_run):
    # both Lehmann samples go through the module-level name the tracer
    # rebinds, and neither realizes a matrix through
    # QuadraticObservable.matrix, at either beta
    first, second = traced_run["fdt_spans"]
    assert first.count("spectral.lehmann") + second.count("spectral.lehmann") == 4
    assert first.count("fields.matrix") == second.count("fields.matrix") == 0


def test_oracle_realizes_no_ladder_operator(traced_run):
    # parents are given relative to the oracle's span, the first recorded;
    # the oracle steps through the space's ladder table, as matrices do, so
    # no fock.ladder span and no cached Operator comes from it
    spans = traced_run["oracle_spans"]
    assert [name for name, _ in spans].count("correlators.oracle") == 1
    assert spans[0][0] == "correlators.oracle"
    ladder = [parent for name, parent in spans if name == "fock.ladder"]
    assert ladder == [0] * (traced_run["oracle_op_cache"] // 2) == []


def test_synthetic_projector_checks_project_each_stack_once(traced_run):
    # both projectors are called through the module-level names the tracer
    # rebinds in cli, once each on the whole stack of random inputs
    spans = traced_run["projector_spans"]
    assert spans.count("tensors.project") == 2
