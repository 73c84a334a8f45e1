"""Command-line front end.

Subcommands: eigs, resolve, kernel, schatten, validate, trace.  Exit
codes: 0 success, 1 solver failure, 2 validation failure, 64 usage.
Structured results are JSON (sorted keys, schema_version and the fully
resolved config embedded, no timestamps) so identical runs are
byte-identical; field dumps are CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .eigensolve import scan_and_refine
from .errors import SolverError, ValidationError
from .green import (PARTS, apply_resolvent, assemble_kernel, bandlimited_forcing,
                    kernel_matrix, resolvent_residual, GridFunction)
from .profiles import (END_TOL, KINDS, OperatorModel, load_tabulated,
                       piecewise_linear_profile, sine_profile, validate_profile)
from .schatten import (INTERVALS_PER_VALUE, LEADING, check_grid_size, dyadic_bound_audit,
                       eigen_schatten_inequality, singular_values)
from .shooting import SolverConfig, solution_pairs
from .singular import compute_log_p, compute_log_p_over_f

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _profile_for(cfg: RunConfig):
    if cfg.profile == "sine":
        return sine_profile()
    if cfg.profile == "piecewise-linear":
        return piecewise_linear_profile()
    return load_tabulated(cfg.profile_file)


def _model_for(cfg: RunConfig) -> OperatorModel:
    """The model of a solving command: a profile that fails ``validate`` is refused."""
    model = OperatorModel(profile=_profile_for(cfg), epsilon=cfg.epsilon)
    failed = validate_profile(model.profile).failed
    if failed:
        raise ValidationError("profile fails validate: "
                              + ", ".join(f"{name} {value:.3g}" for name, value in failed.items()))
    return model


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(rtol=cfg.rtol, atol=cfg.atol)


def _emit_json(cfg: RunConfig, results: dict, default_name: str) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "config": cfg.as_dict(), "results": results}
    path = cfg.out or default_name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {path}")


def _cmd_validate(cfg: RunConfig, args) -> int:
    report = validate_profile(_profile_for(cfg), samples=args.samples)
    results = report.as_dict()
    for key, val in results.items():
        print(f"  {key}: {val}")
    if cfg.out:
        _emit_json(cfg, results, "validate.json")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_eigs(cfg: RunConfig, args) -> int:
    model = _model_for(cfg)
    eigs = scan_and_refine(model, cfg.lmax, cfg.resolution, _solver_config(cfg))
    results = eigs.as_dict()
    _emit_json(cfg, results, "eigs.json")
    line = (f"{len(eigs.eigenvalues)} eigenvalues in [-{cfg.lmax}, {cfg.lmax}], "
            f"growth slope {results['growth_slope']}")
    if eigs.skipped:
        line += f", {len(eigs.skipped)} scan points skipped: {eigs.skipped[0]['reason']}"
    print(line)
    return EXIT_OK


def _cmd_trace(cfg: RunConfig, args) -> int:
    if args.nodes is not None and args.kind != "logp":
        raise ValidationError(f"--nodes sets the rows of --kind logp only; --kind {args.kind} "
                              "is written on the march's mesh")
    nodes = 512 if args.nodes is None else args.nodes
    if nodes < 1:
        raise ValidationError(f"--nodes must be at least 1, got {nodes}")
    model = _model_for(cfg)
    lam = complex(cfg.lambda_re, cfg.lambda_im)
    out = cfg.out or f"trace_{args.kind}.csv"
    if args.kind == "logp":
        x = np.linspace(1e-4, np.pi - 1e-4, nodes)
        lp = np.asarray(compute_log_p(model, x))
        lpf = np.asarray(compute_log_p_over_f(model, x))
        _write_csv(out, "x,log_p,log_p_over_f", zip(x, lp, lpf))
        return EXIT_OK
    pairs = solution_pairs(model, lam, (), _solver_config(cfg))
    u, pu = (pairs.phi, pairs.phi_qd) if args.kind == "phi" else (pairs.psi, pairs.psi_qd)
    x, u, pu = pairs.nodes, u[:, 0], pu[:, 0]             # column 0 is lam
    _write_csv(out, "x,re_u,im_u,re_pu,im_pu", zip(x, u.real, u.imag, pu.real, pu.imag))
    return EXIT_OK


def _read_forcing(path: str) -> np.ndarray:
    """The rows of a forcing file: (x, F) or (x, ReF, ImF), x strictly ascending over [-pi, pi]."""
    try:
        data = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read forcing file {path}: {exc}") from exc
    if data.shape[1] not in (2, 3):
        raise ValidationError(f"{path}: forcing file needs 2 or 3 columns")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: forcing values must be finite")
    if not np.all(np.diff(data[:, 0]) > 0):
        raise ValidationError(f"{path}: forcing x values must be strictly ascending")
    lo, hi = data[0, 0], data[-1, 0]
    if lo > -np.pi + END_TOL or hi < np.pi - END_TOL:
        raise ValidationError(f"{path}: forcing x values must cover [-pi, pi], "
                              f"got [{lo:.10g}, {hi:.10g}]")
    return data


def _forcing_on(kernel, data: np.ndarray) -> GridFunction:
    vals = np.interp(kernel.nodes, data[:, 0], data[:, 1]).astype(complex)
    if data.shape[1] == 3:
        vals += 1j * np.interp(kernel.nodes, data[:, 0], data[:, 2])
    return GridFunction(nodes=kernel.nodes, values=vals)


def _cmd_resolve(cfg: RunConfig, args) -> int:
    data = None if args.forcing == "random" else _read_forcing(args.forcing)
    model = _model_for(cfg)
    lam = complex(cfg.lambda_re, cfg.lambda_im)
    kernel = assemble_kernel(model, lam, cfg.grid, _solver_config(cfg))
    if data is None:
        forcing = bandlimited_forcing(kernel, seed=cfg.seed)
    else:
        forcing = _forcing_on(kernel, data)
    u = apply_resolvent(kernel, forcing)
    out = cfg.out or "u.csv"
    _write_csv(out, "x,re_u,im_u,re_f,im_f",
               zip(kernel.nodes, u.values.real, u.values.imag,
                   forcing.values.real, forcing.values.imag))
    residual = resolvent_residual(model, lam, u, forcing)
    print(f"relative resolvent residual {residual:.3e}, sup|G| = {kernel.sup_norm:.6g}")
    return EXIT_OK


def _cmd_kernel(cfg: RunConfig, args) -> int:
    model = _model_for(cfg)
    lam = complex(cfg.lambda_re, cfg.lambda_im)
    kernel = assemble_kernel(model, lam, cfg.grid, _solver_config(cfg))
    out = cfg.out or "g.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("x,s,re_g,im_g,part\n")
        nodes = kernel.nodes.tolist()           # plain floats: repr is a number
        for tag in PARTS:
            for xi, row in zip(nodes, kernel_matrix(kernel, tag).tolist()):
                for sj, v in zip(nodes, row):
                    fh.write(f"{xi!r},{sj!r},{v.real!r},{v.imag!r},{tag}\n")
    print(f"wrote {out} (sup|G| = {kernel.sup_norm:.6g})")
    return EXIT_OK


def _load_eigenvalues(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            vals = np.asarray(json.load(fh)["results"]["eigenvalues"], dtype=float)
    except KeyError as exc:
        raise ValidationError(f"{path}: no results.eigenvalues entry") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read eigenvalues from {path}: {exc}") from exc
    if vals.ndim != 1 or not np.all(np.isfinite(vals)):
        raise ValidationError(f"{path}: results.eigenvalues must be a list of finite numbers")
    return vals


def _cmd_schatten(cfg: RunConfig, args) -> int:
    eig_vals = _load_eigenvalues(args.eigs_file) if args.eigs_file else None
    model = _model_for(cfg)
    lam = complex(cfg.lambda_re, cfg.lambda_im)
    sc = _solver_config(cfg)
    check_grid_size(cfg.grid)
    kernel = assemble_kernel(model, lam, cfg.grid, sc)
    spectrum = singular_values(kernel, orders=cfg.parsed_orders())
    dyadic = dyadic_bound_audit(model, lam, cfg.levels, sc)
    if eig_vals is None:
        eig_vals = scan_and_refine(model, cfg.lmax, cfg.resolution, sc).eigenvalues
    inequalities = {}
    for p in cfg.parsed_orders():
        if p <= 1.0:
            continue
        rep = eigen_schatten_inequality(eig_vals, spectrum, lam, p)
        inequalities[str(p)] = {"left": rep.left, "right": rep.right, "passed": rep.passed}
    results = {"singular": spectrum.as_dict(), "dyadic": dyadic.as_dict(),
               "inequality": inequalities,
               "eigenvalues_used": eig_vals.tolist()}
    _emit_json(cfg, results, "sv.json")
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser, solving: bool = True) -> None:
    """Every command's flags; a solving command also reads epsilon and the tolerances."""
    sub.add_argument("--config", default=None, help="flat key=value config file")
    sub.add_argument("--profile", default=None, choices=KINDS)
    sub.add_argument("--profile-file", dest="profile_file", default=None)
    sub.add_argument("--out", default=None)
    if solving:
        sub.add_argument("--epsilon", type=float, default=None)
        sub.add_argument("--rtol", type=float, default=None)
        sub.add_argument("--atol", type=float, default=None)


_RESOLUTION_HELP = ("bracketing step: the Chebyshev proxy of Im D is read this far apart, "
                    "which costs no march; roots closer than it may go unseen")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="perspec",
                     description="spectral toolkit for the singular periodic "
                                 "advection operator")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("validate", help="check profile hypotheses")
    _add_common(p, solving=False)
    p.add_argument("--samples", type=int, default=256)

    p = subs.add_parser("eigs", help="scan and refine real eigenvalues")
    _add_common(p)
    p.add_argument("--lmax", type=float, default=None)
    p.add_argument("--resolution", type=float, default=None, help=_RESOLUTION_HELP)

    p = subs.add_parser("trace", help="dump a solution trace or the weight table")
    _add_common(p)
    p.add_argument("--kind", choices=["phi", "psi", "logp"], default="phi")
    p.add_argument("--lambda-re", dest="lambda_re", type=float, default=None)
    p.add_argument("--lambda-im", dest="lambda_im", type=float, default=None)
    p.add_argument("--nodes", type=int, default=None,
                   help="rows of the table, logp only (default 512)")

    p = subs.add_parser("resolve", help="apply the resolvent to a forcing")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None, help="seed of the random forcing")
    p.add_argument("--lambda-re", dest="lambda_re", type=float, default=None)
    p.add_argument("--lambda-im", dest="lambda_im", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--forcing", default="random",
                   help="'random' or a 2/3-column file (x, F) / (x, ReF, ImF)")

    p = subs.add_parser(
        "kernel", help="dump the kernel's entries G(x_i, s_j) as CSV, one block per part",
        description="each row holds x_i, s_j and one part's share of G(x_i, s_j); the parts "
                    "sum to the entry, whose largest modulus is the printed sup|G|")
    _add_common(p)
    p.add_argument("--lambda-re", dest="lambda_re", type=float, default=None)
    p.add_argument("--lambda-im", dest="lambda_im", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)

    p = subs.add_parser(
        "schatten", help="leading singular values, Schatten norms with bounds, dyadic bound, "
                         "inequality",
        description=f"singular.singular_values holds the leading {LEADING} singular values "
                    f"(at most one per {INTERVALS_PER_VALUE} grid intervals) of the kernel's "
                    "entries symmetrized by the square roots of the trapezoid weights, from "
                    "Golub-Kahan-Lanczos on that symmetrized matrix's O(n) apply and adjoint "
                    "on the grid and on its even nodes, extrapolated by "
                    "(4 s(n) - s(n/2)) / 3 and sorted; extrapolation_error is the step's "
                    "largest size over sigma_1; the grid "
                    "size must be a multiple of 4, so that the even nodes hold 0.  The "
                    "other values' sum of squares, tail_mass, "
                    "comes from the Frobenius norm, exact on each grid and extrapolated "
                    "alike.  schatten_norms models those values by a power law fixed by "
                    "tail_mass, schatten_bounds holds [lo, hi] over every tail of that count "
                    "and mass, and tail_shares the modelled tail's share of sum sigma^p.  "
                    "lanczos_steps and lanczos_checks count both solves.  The inequality's "
                    "right side is lo^p.")
    _add_common(p)
    p.add_argument("--lambda-re", dest="lambda_re", type=float, default=None)
    p.add_argument("--lambda-im", dest="lambda_im", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--p", dest="p_orders", default=None, help="comma list of orders")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--lmax", type=float, default=None)
    p.add_argument("--resolution", type=float, default=None, help=_RESOLUTION_HELP)
    p.add_argument("--eigs-file", dest="eigs_file", default=None,
                   help="reuse eigenvalues from a previous eigs run")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "eigs": _cmd_eigs,
    "trace": _cmd_trace,
    "resolve": _cmd_resolve,
    "kernel": _cmd_kernel,
    "schatten": _cmd_schatten,
}

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


def run_subcommand(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        overrides = {k: getattr(args, k) for k in _CONFIG_KEYS if hasattr(args, k)}
        cfg = load_config(args.config, overrides)
        return _HANDLERS[args.command](cfg, args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main(argv=None) -> int:
    code = run_subcommand(sys.argv[1:] if argv is None else argv)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
