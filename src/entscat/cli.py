"""Command-line front end.

Subcommands:
    point      evaluate amplitudes and observables at one parameter point
    scan       1D/2D observable sweep written to CSV or JSON
    truncate   bounce-truncated observables along an axis (exchange model)
    optimize   global probability optimum under unit concurrence, or a
               per-point optimality report
    verify     randomized closed-form vs numeric-solver cross-validation

Exit codes: 0 success, 1 runtime or verification failure, 2 usage error.

The array modules (sweep, verify) load numpy, so the commands that use them
import them in their handlers: point, optimize and --version run without it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .closedform import amplitudes
from .core import (
    DEFAULT_COLUMNS,
    DIMENSIONLESS_NAMES,
    PHYSICAL_NAMES,
    DomainError,
    ModelKind,
    NumericError,
    resolve_point,
    validate,
)
from .observables import _observables
from .optimize import find_global_p_opt, optimal_concurrence


class _Parser(argparse.ArgumentParser):
    """argparse's parser with one rule for a negative number: an argument that starts with "-" and that float()
    reads is a value after any spelling of a flag (argparse's own takes only -1 and -.5); "--flag=--" is refused."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = self  # argparse asks its match(arg) whether arg is a number, not an option

    @staticmethod
    def match(arg: str) -> bool:
        try:
            float(arg)
        except ValueError:
            return False
        return arg.startswith("-")

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:  # argparse before 3.13 strips the "--" and stores []
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _add_model(parser: argparse.ArgumentParser, default: str | None = "xy") -> None:
    parser.add_argument("--model", choices=sorted(m.value for m in ModelKind), default=default,
                        help="coupling model" + (" (default: %(default)s)" if default else " (default: all)"))


def _add_params(parser: argparse.ArgumentParser) -> None:
    for name in PHYSICAL_NAMES + DIMENSIONLESS_NAMES:
        parser.add_argument(f"--{name}", type=float, default=None)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="file output format (default: csv)")
    parser.add_argument("--out", required=True, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entscat",
        description="Entanglement from scattering a spin-1/2 mediator off two pinned qubits in 1D.",
    )
    parser.add_argument("--version", action="version", version=f"entscat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    p_point.set_defaults(run=_cmd_point)
    _add_model(p_point)
    _add_params(p_point)
    p_point.add_argument("--side", choices=("t", "r", "both"), default="both",
                         help="detection side(s) to print (default: both)")

    p_scan = sub.add_parser("scan", help="1D/2D observable sweep to a file")
    p_scan.set_defaults(run=_cmd_scan)
    _add_model(p_scan)
    _add_params(p_scan)
    _add_output(p_scan)
    p_scan.add_argument("--axis", action="append", required=True, metavar="NAME=START:STOP:COUNT",
                        help="sweep axis, repeatable once for a 2D grid")
    p_scan.add_argument("--columns", default=",".join(DEFAULT_COLUMNS),
                        help="comma list of observable columns (default: %(default)s)")

    p_trunc = sub.add_parser("truncate", help="bounce-truncated observables along an axis")
    p_trunc.set_defaults(run=_cmd_truncate)
    _add_model(p_trunc)
    _add_params(p_trunc)
    _add_output(p_trunc)
    p_trunc.add_argument("--axis", required=True, metavar="NAME=START:STOP:COUNT")
    p_trunc.add_argument("--n", required=True, metavar="N[,N...]",
                         help="comma list of bounce counts to keep")

    p_opt = sub.add_parser("optimize", help="optimality reports (exchange model)")
    p_opt.set_defaults(run=_cmd_optimize)
    p_opt.add_argument("target", choices=("popt", "report"))
    p_opt.add_argument("--omegaA", type=float, default=None)
    p_opt.add_argument("--omegaB", type=float, default=None)

    p_verify = sub.add_parser("verify", help="closed-form vs numeric cross-validation")
    p_verify.set_defaults(run=_cmd_verify)
    _add_model(p_verify, default=None)
    p_verify.add_argument("--seed", type=int, default=7, help="sampling seed (default: %(default)s)")
    p_verify.add_argument("--samples", type=int, default=1000)

    return parser


def _collect_params(args: argparse.Namespace) -> dict[str, float]:
    return {f: getattr(args, f) for f in PHYSICAL_NAMES + DIMENSIONLESS_NAMES if getattr(args, f) is not None}


def _fmt(value) -> str:
    if value is None:
        return "undefined (P=0)"
    return repr(float(value))


def _cmd_point(parser, args) -> int:
    pt = validate(resolve_point(_collect_params(args), ModelKind(args.model)))
    amps = amplitudes(pt)
    obs = _observables(amps)
    s = math.sin(pt.phase)
    lines = [
        f"model: {args.model}",
        f"omega_a: {_fmt(pt.omega_a)}",
        f"omega_b: {_fmt(pt.omega_b)}",
        f"phase: {_fmt(pt.phase)}" + (f" (folded from {_fmt(pt.phase_original)})" if pt.phase_original is not None else ""),
        f"sin2_kd: {_fmt(s * s)}",
        "amplitudes (re, im):",
    ]
    for name, z in zip(amps._fields, amps):
        lines.append(f"  {name}: {z.real!r} {z.imag!r}")
    lines.append(f"flux_sum: {_fmt(amps.flux())}")
    for side, label in (("t", "transmitted"), ("r", "reflected")):
        if args.side in (side, "both"):
            c, p, a = (getattr(obs, f"{field}_{side}") for field in ("concurrence", "probability", "ratio_a"))
            lines.append(f"{label}: C={_fmt(c)} P={_fmt(p)} a={_fmt(a)}")
    print("\n".join(lines))
    return 0


def _parse_axis(parser, text: str):
    from .sweep import Axis

    try:
        name, rest = text.split("=", 1)
        start, stop, count = rest.split(":")
        return Axis(name.strip(), float(start), float(stop), int(count))
    except ValueError as exc:  # DomainError is a ValueError
        parser.error(f"bad --axis {text!r}: {exc}")


def _write(grid, args) -> int:
    from .sweep import write_grid

    try:
        write_grid(grid, args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_scan(parser, args) -> int:
    from .sweep import run_scan

    axes = tuple(_parse_axis(parser, text) for text in args.axis)
    columns = tuple(c.strip() for c in args.columns.split(",") if c.strip())
    return _write(run_scan(axes, _collect_params(args), ModelKind(args.model), columns), args)


def _cmd_truncate(parser, args) -> int:
    if ModelKind(args.model) is not ModelKind.SPIN_EXCHANGE:
        parser.error("truncate supports the exchange model only (--model xy)")
    axis = _parse_axis(parser, args.axis)
    try:
        orders = tuple(int(tok) for tok in args.n.split(","))
    except ValueError:
        parser.error(f"bad --n {args.n!r}: expected comma-separated integers")
    from .sweep import run_truncation

    return _write(run_truncation(axis, _collect_params(args), orders), args)


def _cmd_optimize(parser, args) -> int:
    if args.target == "popt":
        if args.omegaA is not None or args.omegaB is not None:
            parser.error("optimize popt takes no --omegaA or --omegaB")
        omega_a, omega_b, p = find_global_p_opt()
        lines = [
            f"omega_a: {omega_a!r}",
            f"omega_b: {omega_b!r}",
            "sin2_kd: 1.0",
            "concurrence: 1.0",
            f"probability: {p!r}",
        ]
        print("\n".join(lines))
        return 0
    if args.omegaA is None or args.omegaB is None:
        parser.error("optimize report needs --omegaA and --omegaB")
    report = optimal_concurrence(args.omegaA, args.omegaB)
    lines = [
        f"omega_a: {report.omega_a!r}",
        f"omega_b: {report.omega_b!r}",
        f"regime: {report.regime.value}",
        f"sin2_kd: {report.phase_choice!r}",
        f"concurrence: {report.concurrence!r}",
        f"probability: {report.probability!r}",
    ]
    if report.reason is None:
        lines.append(f"unit concurrence: feasible at sin2_kd={report.phase_choice!r}")
    else:
        lines.append(f"unit concurrence: infeasible ({report.reason})")
    print("\n".join(lines))
    return 0


def _cmd_verify(parser, args) -> int:
    from .verify import run_verification

    models = tuple(ModelKind) if args.model is None else (ModelKind(args.model),)
    report = run_verification(args.samples, args.seed, models)
    for check in report.checks:
        status = "PASS" if check.ok else "FAIL"
        print(f"{status} {check.name}: max deviation {check.worst!r} (tolerance {check.tolerance!r})")
        if not check.ok:
            print(f"     worst point: {check.worst_point!r}")
    print(f"{'PASS' if report.ok else 'FAIL'} overall ({report.samples_per_model} samples/model, seed {report.seed})")
    return 0 if report.ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.run(parser, args)
    except DomainError as exc:
        parser.error(str(exc))
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
