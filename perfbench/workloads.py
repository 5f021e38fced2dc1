"""The benchmark's workloads: inputs drawn from a seed, one pass each.

Each workload object draws its inputs in ``__init__`` (part of set-up) and
does one full pass of work in ``run_pass``, building fresh Fock spaces every
time as a user's run does (ladder operators are cached per space, so reusing
a space would hide their cost after the first pass).  Every pass evaluates
correctness gates through ``Gates``; an exception raised by boxqft fails the
unit of work it happened in and the pass goes on.

boxqft is reached through module attributes (``fields.stress_tensor_scalar``)
and never through names bound here, so a traced run that rebinds the
modules' functions sees every call made below.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from boxqft import cli, fields, fock, measurement, spectral
from boxqft.spacetime import FourVector

BOX = 2 * math.pi          # box length L; lattice momentum unit 2*pi/L = 1
U = 2 * math.pi / BOX

HERMITICITY_TOL = 1e-12
VACVAR_TOL = 1e-12
FDT_TOL = 1e-10
FDT_MIN_G = 1e-13          # detailed balance is gated where |G| exceeds this
NONZERO_FLOOR = 0.5        # least share of sweep samples with |G| > FDT_MIN_G
MOMENTS_TOL = 1e-12


class Gates:
    """Correctness gates; each evaluation is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @contextlib.contextmanager
    def unit(self, name):
        """Run one unit of work; an exception in it is one failed operation."""
        try:
            yield
        except Exception as exc:  # a boxqft fault must not stop the run
            traceback.print_exc(file=sys.stderr)
            self.check(name, False, f"raised {exc!r}")


def _grid(axes, n_mode, species, mass=0.0):
    return fock.ModeGrid(axes=axes, lengths=(BOX,) * len(axes),
                         ranges=((-n_mode, n_mode),) * len(axes),
                         species=species, mass=mass)


def _dirac_space(n_mode, caps):
    grid = _grid((3,), n_mode, fock.Species.FERMION, mass=1.0)
    return fock.build_fock_space(fields.dirac_space_channels(grid), *caps)


# ---------------------------------------------------------------------------
# cli-all


class CliAll:
    """``boxqft all`` at the default configuration, in process, with the
    seed as the CLI's ``--seed``; artifacts go to a scratch directory."""

    name = "cli-all"

    def __init__(self, seed, scratch: Path):
        self.args = ["all", "--seed", str(seed)]
        self.scratch = scratch
        self.first = None              # artifacts of the first pass

    def run_pass(self, gates: Gates):
        out = Path(tempfile.mkdtemp(prefix="cli-all-", dir=self.scratch))
        try:
            code = self._invoke(out)
            gates.check("cli.exit_code", code == 0, f"exit code {code}")
            for cmd in cli.COMMANDS:
                report = out / f"{cmd.replace('-', '_')}_report.json"
                if not report.exists():
                    gates.check(f"cli.{cmd}", False, "no report written")
                    continue
                for c in json.loads(report.read_text())["checks"]:
                    gates.check(f"cli.{cmd}:{c['name']}", c["passed"],
                                f"computed={c['computed']!r}")
            artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            if self.first is None:
                self.first = artifacts
            else:
                differ = sorted(k for k in artifacts.keys() | self.first.keys()
                                if artifacts.get(k) != self.first.get(k))
                gates.check("cli.byte_identical", not differ, f"differ: {differ}")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _invoke(self, out):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(self.args + ["--out", str(out)], standalone_mode=False)
            except SystemExit as exc:
                return exc.code
            except Exception:      # a boxqft exception fails the pass
                traceback.print_exc(file=sys.stderr)
                return "exception"
        return 0


# ---------------------------------------------------------------------------
# lattice-build


class LatticeBuild:
    """Build-heavy: every observable built once and evaluated once.

    Cells: 3D massless scalar R=2 caps (2,2) with T00 and T03; Dirac
    n_mode=6 caps (1,3) with j0 and j3; 1D massless scalar n_mode=16 caps
    (3,3) with T00 at the commensurate duration tau = L.  The seed draws a
    space-like readout momentum per cell within a class of equal work (a
    cubic-symmetry orbit in 3D, a fixed |p3| set on the line).
    """

    name = "lattice-build"

    def __init__(self, seed, scratch=None):
        rng = np.random.default_rng([seed, 1])
        axis = int(rng.integers(3))
        lat3 = [0.0, 0.0, 0.0]
        lat3[axis] = float(rng.choice([-1, 1]))
        p3d = FourVector(rng.uniform(0.0, 0.9) * U, *(v * U for v in lat3))
        n_dirac = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        p_dirac = FourVector(rng.uniform(0.0, 0.9) * abs(n_dirac) * U,
                             0.0, 0.0, n_dirac * U)
        # commensurate window kills pair creation only for lattice p0
        n_line = int(rng.choice([-5, -4, -3, -2, 2, 3, 4, 5]))
        p_line = FourVector(int(rng.integers(abs(n_line))) * U,
                            0.0, 0.0, n_line * U)
        self.cells = [
            ("3d", lambda: fock.build_fock_space(
                [("phi", _grid((1, 2, 3), 2, fock.Species.BOSON))], 2, 2),
             [("T00", lambda s: fields.stress_tensor_scalar(s, 0, 0)),
              ("T03", lambda s: fields.stress_tensor_scalar(s, 0, 3))],
             p3d, False),
            ("dirac", lambda: _dirac_space(6, (1, 3)),
             [("j0", lambda s: fields.dirac_current_density(s, 0)),
              ("j3", lambda s: fields.dirac_current_density(s, 3))],
             p_dirac, False),
            ("1d", lambda: fock.build_fock_space(
                [("phi", _grid((3,), 16, fock.Species.BOSON))], 3, 3),
             [("T00", lambda s: fields.stress_tensor_scalar(s, 0, 0))],
             p_line, True),
        ]

    def run_pass(self, gates: Gates):
        window = measurement.MeasurementWindow(tau=BOX)
        for cell, build_space, observables, p, commensurate in self.cells:
            with gates.unit(f"{cell}.space"):
                space = build_space()
                for mode in space.modes:
                    space.annihilation(mode.channel, mode.n)
                    space.creation(mode.channel, mode.n)
                for label, build in observables:
                    with gates.unit(f"{cell}.{label}"):
                        self._observable(gates, f"{cell}.{label}", space,
                                         build(space), p, window, commensurate)

    @staticmethod
    def _observable(gates, tag, space, density, p, window, commensurate):
        obs = measurement.spacelike_windowed_observable(density, p, window)
        obs.matrix()
        defect = obs.hermiticity_defect()
        gates.check(f"{tag}.hermiticity", defect <= HERMITICITY_TOL, f"{defect!r}")
        var = measurement.vacuum_variance(space, obs)
        if commensurate:
            gates.check(f"{tag}.vacvar", abs(var) <= VACVAR_TOL, f"{var!r}")
        sample = spectral.lehmann_spectral_density(space, density, density, p,
                                                   math.inf)
        gates.check(f"{tag}.lehmann_terms", sample.term_count == 0,
                    f"{sample.term_count} pairs at space-like p, beta=inf")


# ---------------------------------------------------------------------------
# spectral-sweep


def transition_lines(grid):
    """(p0, lattice p3) of every transition a current bilinear can drive:
    pair lines +-(E1+E2) at +-(n1+n2) and scattering lines E1-E2 at n1-n2."""
    lines = set()
    for (n1,) in grid.modes:
        for (n2,) in grid.modes:
            e1, e2 = grid.energy((n1,)), grid.energy((n2,))
            lines.update({(e1 + e2, n1 + n2), (-(e1 + e2), -(n1 + n2)),
                          (e1 - e2, n1 - n2)})
    return lines


def isolated_lines(lines, bin_width):
    """Lines with no other line of the same p3 within one bin width, so that
    the binned Lehmann sum resolves a single energy difference."""
    by_p3 = {}
    for p0, p3 in lines:
        by_p3.setdefault(p3, []).append(p0)
    return sorted((p0, p3) for p0, p3 in lines
                  if not any(0 < abs(q - p0) <= bin_width for q in by_p3[p3]))


class SpectralSweep:
    """Evaluation-heavy: observables built once per pass, sampled many times.

    Detailed-balance pairs ``fdt_ratio`` for j0..j3 on Dirac n_mode=4 caps
    (1,3) at seeded (p, beta), p0 on the space's own isolated transition
    lines, LINES_PER_P3 lines for every |p3| so the work does not depend on
    the seed; then thermal ``moments`` of a cosine-windowed j0 on Dirac
    n_mode=3 caps (1,3) at three seeded beta.
    """

    name = "spectral-sweep"
    LINES_PER_P3 = 4
    BETA_RANGE = (0.5, 1.0)    # beta*|p0| stays small enough for 1e-10

    def __init__(self, seed, scratch=None):
        rng = np.random.default_rng([seed, 2])
        grid = _grid((3,), 4, fock.Species.FERMION, mass=1.0)
        bin_width = 2 * math.pi * grid.v_c / BOX / 8   # default_delta_omega
        lines = isolated_lines(transition_lines(grid), bin_width)
        self.samples = []
        for k in sorted({abs(p3) for _, p3 in lines}):
            pool = [ln for ln in lines if abs(ln[1]) == k]
            for i in rng.integers(len(pool), size=self.LINES_PER_P3):
                p0, p3 = pool[i]
                self.samples.append((FourVector(p0, 0.0, 0.0, p3 * U),
                                     float(rng.uniform(*self.BETA_RANGE))))
        self.p_moments = FourVector(rng.uniform(0.0, 0.9) * 2 * U, 0.0, 0.0,
                                    float(rng.choice([-2, 2])) * U)
        self.betas = sorted(float(b) for b in rng.uniform(0.5, 2.0, size=3))

    def run_pass(self, gates: Gates):
        with gates.unit("sweep.space"):
            space = _dirac_space(4, (1, 3))
            currents = [fields.dirac_current_density(space, mu) for mu in range(4)]
            nonzero = 0
            for p, beta in self.samples:
                for mu, j in enumerate(currents):
                    tag = f"fdt[j{mu},p0={p.t:.6f},p3={p.z:g},beta={beta:.4f}]"
                    with gates.unit(tag):
                        lhs, rhs, sample = spectral.fdt_ratio(space, j, p, beta)
                        if abs(sample.G) > FDT_MIN_G:
                            nonzero += 1
                            rel = abs(lhs - rhs) / abs(sample.G)
                            gates.check(tag, rel <= FDT_TOL, f"{rel!r}")
            ratio = nonzero / (len(self.samples) * len(currents))
            gates.check("sweep.nonzero_ratio", ratio >= NONZERO_FLOOR, f"{ratio!r}")

        with gates.unit("moments.space"):
            space = _dirac_space(3, (1, 3))
            obs = measurement.spacelike_windowed_observable(
                fields.dirac_current_density(space, 0), self.p_moments,
                measurement.MeasurementWindow(tau=BOX))
            mat = obs.matrix()
            for beta in self.betas:
                with gates.unit(f"moments[beta={beta:.4f}]"):
                    rho = fock.thermal_state(space, beta)
                    res = measurement.moments(rho, obs)
                    mean = fock.expectation(rho, mat)
                    gates.check(f"moments.mean[beta={beta:.4f}]",
                                abs(res.mean - mean) <= MOMENTS_TOL,
                                f"{res.mean!r} vs {mean!r}")
                    second = fock.expectation(rho, mat @ mat)
                    rel = abs(res.values[1] - second) / max(abs(second), 1e-300)
                    gates.check(f"moments.second[beta={beta:.4f}]",
                                rel <= MOMENTS_TOL, f"{rel!r}")


WORKLOADS = {w.name: w for w in (CliAll, LatticeBuild, SpectralSweep)}
