"""Command-line surface: gen, assume, solve, arrowhead, exp.

Every subcommand is a pure function of (argv, input files); reports are JSON
on stdout unless --out is given. Exit codes: 0 success, 1 usage error,
2 numeric failure. Each subcommand takes only the shared flags it reads (see
SHARED_FLAGS), and gen rejects a flag that its --kind does not read (see
GEN_KINDS). PERTURB_SEED sets the default seed of gen and arrowhead, the two
subcommands that draw one (--seed wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import arrowhead as arrow
from . import bounds, rs_solver
from .ensembles import (
    EntryDistribution,
    SpectrumSpec,
    realize_spectrum,
    sample_arrowhead_noise,
    sample_arrowhead_vector,
    sample_goe,
    sample_gue,
    sample_inconsistency_instance,
    sample_subgaussian_hermitian,
)
from .errors import PerturbError
from .experiments import ExperimentConfig, run_and_export
from .matcore import matrix_from_json, matrix_to_json, vector_to_json

USAGE_ERROR, NUMERIC_ERROR = 1, 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1.

    Abbreviations are off, so a flag a subcommand does not take is rejected
    rather than read as the prefix of one it does (solve's --n as --noise).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _default_seed() -> int:
    env = os.environ.get("PERTURB_SEED")
    return int(env) if env else 0


def _load_spectrum_arg(text: str, n: int | None) -> SpectrumSpec:
    raw = text.strip()
    if not raw.startswith("{"):
        raw = Path(raw).read_text()
    return SpectrumSpec.from_dict(json.loads(raw), n=n)


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload + "\n")
    else:
        sys.stdout.write(payload + "\n")


# The optional flags each gen kind reads; gen rejects any other flag given.
GEN_KINDS = {
    "goe": ("seed", "n"),
    "gue": ("seed", "n"),
    "subgaussian": ("seed", "n", "dist", "trunc", "scalar"),
    "arrowhead": ("seed", "n"),
    "inconsistency": ("seed", "n", "p"),
    "diag": ("spectrum",),  # its size is the spectrum spec's "n"
}

# Flags shared by several subcommands; build_parser gives each subcommand the
# ones its handler reads.
SHARED_FLAGS = {
    "seed": dict(type=int, default=None, help="master seed (default: PERTURB_SEED or 0)"),
    "n": dict(type=int, default=None, help="dimension"),
    "p": dict(type=float, default=2.0, help="norm exponent"),
    "c0": dict(type=float, default=bounds.DEFAULT_C0, help="assumption threshold"),
    "tol": dict(type=float, default=rs_solver.DEFAULT_TOL, help="iteration tolerance"),
    "format": dict(choices=["json", "csv"], default=None,
                   help="records format (default: the config's)"),
    "out": dict(default=None, help="write output here instead of stdout"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="perturb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="sample a random matrix / instance as JSON")
    p_gen.add_argument("--kind", required=True, choices=list(GEN_KINDS))
    p_gen.add_argument("--dist", default=None, help="subgaussian entry law (default: gaussian)",
                       choices=["gaussian", "rademacher", "uniform_pm1", "truncated_gaussian"])
    p_gen.add_argument("--trunc", type=float, default=None,
                       help="truncated_gaussian level (default: 3)")
    p_gen.add_argument("--scalar", choices=["real", "complex"], default=None,
                       help="subgaussian scalar field (default: real)")
    p_gen.add_argument("--spectrum", default=None, help="spectrum spec JSON (inline or file)")

    p_assume = sub.add_parser("assume", help="evaluate the eigenvalue-gap assumption")
    p_assume.add_argument("--spectrum", required=True)

    p_solve = sub.add_parser("solve", help="leading eigenpair of A + E by the fixed point")
    p_solve.add_argument("--matrix", required=True, help="matrix JSON file for A")
    p_solve.add_argument("--noise", required=True, help="matrix JSON file for E")
    p_solve.add_argument("--certificate-cap", type=float, default=rs_solver.CERTIFICATE_CAP)

    p_arrow = sub.add_parser("arrowhead", help="secular-equation eigenpair for arrowhead noise")
    p_arrow.add_argument("--spectrum", required=True)

    p_exp = sub.add_parser("exp", help="run a Monte Carlo experiment config")
    p_exp.add_argument("--config", required=True, help="experiment config JSON file")
    p_exp.add_argument("--threads", type=int, default=1)
    p_exp.add_argument("--out-dir", default=None, help="override the config output path")

    for p, names in (
        (p_gen, ("seed", "n", "p", "out")),
        (p_assume, ("n", "c0", "out")),
        (p_solve, ("p", "tol", "out")),
        (p_arrow, ("seed", "n", "tol", "out")),
        (p_exp, ("format", "out")),
    ):
        for name in names:
            p.add_argument(f"--{name}", **SHARED_FLAGS[name])
    p_gen.set_defaults(p=None)  # like gen's own flags, so _cmd_gen sees whether --p was given
    return parser


def _cmd_gen(args) -> str:
    optional = {name for names in GEN_KINDS.values() for name in names}
    unread = sorted(name for name in optional - set(GEN_KINDS[args.kind])
                    if getattr(args, name) is not None)
    if unread:
        flags = ", ".join(f"--{name}" for name in unread)
        raise ValueError(f"gen --kind {args.kind} does not read {flags}")
    if args.kind == "diag":
        if args.spectrum is None:
            raise ValueError("gen --kind diag needs --spectrum")
        spec = _load_spectrum_arg(args.spectrum, None)
        return matrix_to_json(np.diag(realize_spectrum(spec).lambdas))
    seed = args.seed if args.seed is not None else _default_seed()
    if args.n is None:
        raise ValueError("gen needs --n")
    if args.kind == "goe":
        return matrix_to_json(sample_goe(args.n, seed))
    if args.kind == "gue":
        return matrix_to_json(sample_gue(args.n, seed))
    if args.kind == "subgaussian":
        if args.trunc is not None and args.dist != "truncated_gaussian":
            raise ValueError("gen reads --trunc only with --dist truncated_gaussian")
        dist = EntryDistribution(args.dist or "gaussian", 3.0 if args.trunc is None else args.trunc)
        return matrix_to_json(sample_subgaussian_hermitian(args.n, dist, args.scalar or "real", seed))
    if args.kind == "arrowhead":
        g, E = sample_arrowhead_noise(args.n, seed)
        return json.dumps({"g": json.loads(vector_to_json(g)), "E": json.loads(matrix_to_json(E))})
    A, E = sample_inconsistency_instance(args.n, 2.0 if args.p is None else args.p, seed)
    return json.dumps({"A": json.loads(matrix_to_json(A)), "E": json.loads(matrix_to_json(E))})


def _cmd_assume(args) -> str:
    spec = _load_spectrum_arg(args.spectrum, args.n)
    spectrum = realize_spectrum(spec)
    report = bounds.assumption_report(spectrum, c0=args.c0)
    return json.dumps(report.to_dict(), indent=1)


def _cmd_solve(args) -> str:
    A = matrix_from_json(Path(args.matrix).read_text())
    E = matrix_from_json(Path(args.noise).read_text())
    report = rs_solver.solve(
        A, E, p=args.p, tol=args.tol, certificate_cap=args.certificate_cap
    )
    return json.dumps(report.to_dict(), indent=1)


def _cmd_arrowhead(args) -> str:
    seed = args.seed if args.seed is not None else _default_seed()
    spec = _load_spectrum_arg(args.spectrum, args.n)
    spectrum = realize_spectrum(spec)
    g = sample_arrowhead_vector(spectrum.n, seed)
    gamma = arrow.solve_gamma(spectrum, g, tol=min(args.tol, 1e-14))
    sol = arrow.arrowhead_eigvec(spectrum, g, gamma)
    return json.dumps(sol.to_dict(), indent=1)


def _cmd_exp(args) -> str:
    cfg = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    if args.format is not None:
        cfg.output["format"] = args.format
    out_dir = args.out_dir or cfg.output.get("path", "out")
    paths = run_and_export(cfg, out_dir, threads=args.threads)
    return json.dumps(paths, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "assume": _cmd_assume,
        "solve": _cmd_solve,
        "arrowhead": _cmd_arrowhead,
        "exp": _cmd_exp,
    }
    try:
        payload = handlers[args.command](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except PerturbError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return NUMERIC_ERROR
    _emit(payload, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
