"""Seeded inputs and one pass of each workload, with its correctness gates.

A pass runs every operation of a workload once and reports how many
operations it attempted and how many failed.  ``perspec`` receives only
the inputs generated here from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import perspec
import perspec.cli
import perspec.green

# Positive eigenvalues of the sine profile at eps = 1, to 6 decimals.
# Copied from REFERENCE_POSITIVE_EIGS in tests/conftest.py, where they were
# refined by an independently coded scipy shooting run.
REFERENCE_POSITIVE_EIGS = (1.239839, 3.328857, 6.331584)

EIG_ERR_TOL = 1e-6           # the reference's own 6-decimal floor
EIG_RESIDUAL_TOL = 1e-8      # max relative |D| at the refined eigenvalues
SYMMETRY_TOL = 1e-12
RESOLVENT_IM_LOW = 0.75      # lower end of Im(lam) for the resolvent workload
SCHATTEN_LEVELS = 6

EPSILON = 1.0
PROFILES = {"sine": perspec.sine_profile, "piecewise-linear": perspec.piecewise_linear_profile}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, smaller ones the self-test's."""

    lmax: float = 8.0
    ladder: tuple = (256, 512, 1024, 2048)
    resolvent_tol: float = 5e-5
    pairs_per_profile: int = 9
    schatten_grid: int = 1024
    schatten_lams: int = 3


@dataclass
class PassResult:
    attempted: int
    failed: int
    failures: list            # one line per failed operation or gate
    details: dict             # accuracy reached, one list entry per operation


def scan_grid_size(resolution: float, lam_max: float) -> int:
    """Number of points on the scan grid of ``scan_and_refine``: the operations of a pass."""
    return len(np.arange(resolution, lam_max + resolution / 2, resolution))


def _lam(rng: random.Random, re: float, im_low: float = 0.5) -> dict:
    return {"lam_re": re, "lam_im": rng.uniform(im_low, 1.5)}


def make_inputs(workload: str, seed: int, sizes: Sizes) -> dict:
    """Every input of a workload, generated from the seed alone."""
    rng = random.Random(seed)
    if workload == "spectrum":
        return {"profile": "sine", "epsilon": EPSILON, "lmax": sizes.lmax,
                "resolution": 0.05 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))}
    if workload == "resolvent":
        # Re(lam) on a randomly shifted lattice over [-3, 3], per profile:
        # the share of lam that needs the finest rung then depends less on
        # the seed, so solve_s measures the code more than the draw.
        # Im(lam) >= 0.75: near -+3 + 0.5i even the 2048 grid misses 5e-5.
        pairs = []
        k = sizes.pairs_per_profile
        for profile in PROFILES:
            shift = rng.random()
            pairs += [{"profile": profile,
                       **_lam(rng, -3.0 + 6.0 * (i + shift) / k, RESOLVENT_IM_LOW)}
                      for i in range(k)]
        rng.shuffle(pairs)
        return {"epsilon": EPSILON, "pairs": pairs, "ladder": list(sizes.ladder),
                "tol": sizes.resolvent_tol}
    if workload == "schatten":
        refs = [r for r in REFERENCE_POSITIVE_EIGS if r <= sizes.lmax]
        return {"profile": "sine", "epsilon": EPSILON, "grid": sizes.schatten_grid,
                "levels": SCHATTEN_LEVELS,
                "lams": [_lam(rng, rng.uniform(-3.0, 3.0)) for _ in range(sizes.schatten_lams)],
                "eigenvalues": [-r for r in reversed(refs)] + [0.0] + refs}
    raise ValueError(f"unknown workload {workload!r}")


def _cli(argv: list) -> tuple[int, str]:
    """One CLI call in-process; its chatter is kept off the benchmark's stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = perspec.cli.run_subcommand(argv)
    return code, err.getvalue().strip()


def _short_error() -> str:
    return traceback.format_exc(limit=1).strip().splitlines()[-1]


def spectrum_pass(inputs: dict, workdir: Path, tracer) -> PassResult:
    """`perspec eigs`; one operation is one scan grid point."""
    res, lmax = inputs["resolution"], inputs["lmax"]
    points = scan_grid_size(res, lmax)
    out = workdir / "eigs.json"
    tracer.op = "eigs"
    try:
        code, err = _cli(["eigs", "--profile", inputs["profile"],
                          "--epsilon", repr(inputs["epsilon"]), "--lmax", repr(lmax),
                          "--resolution", repr(res), "--out", str(out)])
    except Exception:
        return PassResult(points, points, [f"eigs raised: {_short_error()}"], {})
    if code != 0:
        return PassResult(points, points, [f"eigs exit {code}: {err}"], {})
    results = json.loads(out.read_text())["results"]

    eigs = np.asarray(results["eigenvalues"])
    refs = np.asarray([r for r in REFERENCE_POSITIVE_EIGS if r <= lmax])
    problems = []
    if len(eigs) != 2 * len(refs) + 1:
        problems.append(f"{len(eigs)} eigenvalues, expected {2 * len(refs) + 1}")
    if 0.0 not in eigs:
        problems.append("zero eigenvalue missing")
    asym = float(np.max(np.abs(eigs + eigs[::-1]))) if len(eigs) else 0.0
    if asym > SYMMETRY_TOL * (1.0 + float(np.max(np.abs(eigs), initial=0.0))):
        problems.append(f"spectrum not symmetric about 0 (defect {asym:.3e})")
    residual = float(np.max(results["relative_residuals"], initial=0.0))
    details = {"eig_residual": [residual]}
    if residual > EIG_RESIDUAL_TOL:
        problems.append(f"eig_residual {residual:.3e} > {EIG_RESIDUAL_TOL:g}")
    positive = eigs[eigs > 0]
    if len(positive) == len(refs):
        eig_err = float(np.max(np.abs(positive - refs), initial=0.0))
        details["eig_err"] = [eig_err]
        if eig_err > EIG_ERR_TOL:
            problems.append(f"eig_err {eig_err:.3e} > {EIG_ERR_TOL:g}")
    skipped = [f"skipped lam = {s['lam']:.6g}: {s['reason']}" for s in results["skipped"]]
    failed = points if problems else len(skipped)
    return PassResult(points, failed, problems + skipped, details)


def _weighted_rel_err(weights, got, want) -> float:
    return float(np.sqrt(np.sum(weights * np.abs(got - want) ** 2)
                         / np.sum(weights * np.abs(want) ** 2)))


def resolvent_pass(inputs: dict, workdir: Path, tracer) -> PassResult:
    """Grid ladder per lam until the manufactured solution is recovered to tol.

    One operation is one lam; it fails when the last rung misses the
    tolerance or anything raises.
    """
    models = {name: perspec.OperatorModel(profile=make(), epsilon=inputs["epsilon"])
              for name, make in PROFILES.items()}
    tol = inputs["tol"]
    failures, errs = [], []
    for i, pair in enumerate(inputs["pairs"]):
        tracer.op = f"lam{i}"
        model = models[pair["profile"]]
        lam = complex(pair["lam_re"], pair["lam_im"])
        try:
            for n in inputs["ladder"]:
                kernel = perspec.green.assemble_kernel(model, lam, n)
                u_star, forcing = perspec.green.manufactured_pair(model, lam, kernel.nodes)
                u = perspec.green.apply_resolvent(kernel, forcing)
                err = _weighted_rel_err(kernel.weights, u.values, u_star.values)
                if err <= tol:
                    break
        except Exception:
            failures.append(f"{pair['profile']} lam = {lam:.6g}: {_short_error()}")
            continue
        if err > tol:
            failures.append(f"{pair['profile']} lam = {lam:.6g}: error {err:.3e} > {tol:g} "
                            f"at grid {n}")
            continue
        errs.append(err)
    return PassResult(len(inputs["pairs"]), len(failures), failures, {"recovery_err": errs})


def write_eigs_file(inputs: dict, path: Path) -> None:
    """Write the eigenvalue file ``perspec schatten --eigs-file`` reads; record its path in the inputs."""
    path.write_text(json.dumps({"results": {"eigenvalues": inputs["eigenvalues"]}}))
    inputs["eigs_file"] = str(path)


def schatten_pass(inputs: dict, workdir: Path, tracer) -> PassResult:
    """`perspec schatten` per lam against the inputs' eigenvalue file; one operation is one lam."""
    out = workdir / "sv.json"
    failures = []
    for i, lam in enumerate(inputs["lams"]):
        tracer.op = f"lam{i}"
        label = f"lam = {complex(lam['lam_re'], lam['lam_im']):.6g}"
        try:
            code, err = _cli(["schatten", "--profile", inputs["profile"],
                              "--epsilon", repr(inputs["epsilon"]),
                              "--grid", str(inputs["grid"]), "--levels", str(inputs["levels"]),
                              "--lambda-re", repr(lam["lam_re"]),
                              "--lambda-im", repr(lam["lam_im"]),
                              "--eigs-file", inputs["eigs_file"], "--out", str(out)])
        except Exception:
            failures.append(f"{label}: {_short_error()}")
            continue
        if code != 0:
            failures.append(f"{label}: exit {code}: {err}")
            continue
        results = json.loads(out.read_text())["results"]
        sv = np.asarray(results["singular"]["singular_values"])
        bad = [p for p, row in results["inequality"].items() if not row["passed"]]
        if not results["inequality"] or bad:
            failures.append(f"{label}: inequality failed for p in {bad or 'none checked'}")
        elif len(sv) == 0 or np.any(sv <= 0) or np.any(np.diff(sv) > 0):
            failures.append(f"{label}: singular values not positive and non-increasing")
    return PassResult(len(inputs["lams"]), len(failures), failures, {})


PASSES = {"spectrum": spectrum_pass, "resolvent": resolvent_pass, "schatten": schatten_pass}
