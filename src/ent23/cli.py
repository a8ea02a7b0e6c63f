"""Command-line front end.

Subcommands: ``compute`` prints the full measure report for one state file,
``verify`` runs the cross-formula check suite over a random ensemble, and
``sample`` writes a CSV of measures over a random ensemble.  Exit codes are
0 on success, 1 when verification fails, 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import ConsistencyError, StateFileError, ValidationError
from .measures import full_report
from .rng import RandomStream
from .sampling import haar_chunks
from .statefile import parse_state_file
from .verify import VerifyOutcome, run_verification

_CSV_HEADER = "index,c,eof,u_norm,v_norm,k1,k2"
_CSV_ROW = "%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n"


def _cmd_compute(args: argparse.Namespace) -> int:
    try:
        text = Path(args.state_file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file is not valid UTF-8: {exc}") from exc
    psi = parse_state_file(text, renormalize=args.renormalize)
    report = full_report(psi).as_dict()
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for name, value in report.items():
            print(f"{name:<13} {value:.15g}")
    return 0


def _render_outcome_text(outcome: VerifyOutcome) -> str:
    width = max(len(check.name) for check in outcome.checks)
    lines = [f"{'check':<{width}}  {'max error':>12}  {'tolerance':>10}  status"]
    for check in outcome.checks:
        status = "pass" if check.passed else "FAIL"
        lines.append(f"{check.name:<{width}}  {check.max_error:>12.6e}"
                     f"  {check.tolerance:>10.3e}  {status}")
    for key, value in outcome.observations.items():
        lines.append(f"observed {key}: {value:.12g}")
    passed = sum(check.passed for check in outcome.checks)
    verdict = "pass" if outcome.overall else "FAIL"
    lines.append(f"overall: {verdict} ({passed}/{len(outcome.checks)} checks)")
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    outcome = run_verification(n_states=args.n, seed=args.seed, tol=args.tol)
    if args.format == "json":
        payload = {
            "checks": [
                {"name": c.name, "max_error": c.max_error,
                 "tolerance": c.tolerance, "passed": c.passed}
                for c in outcome.checks
            ],
            "observations": outcome.observations,
            "overall": outcome.overall,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(_render_outcome_text(outcome))
    return 0 if outcome.overall else 1


def _write_sample(args: argparse.Namespace, out) -> None:
    # Each chunk's rows are written before the next chunk is drawn.
    out.write(_CSV_HEADER + "\n")
    start = 0
    for chunk in haar_chunks((2, 3), RandomStream(args.seed), args.n):
        rep = full_report(chunk)
        columns = (rep.c_amplitude, rep.eof, rep.u_norm, rep.v_norm, rep.k1, rep.k2)
        n = len(rep.k1)
        # "%.12g" % x and format(x, ".12g") are the same PyOS_double_to_string call.
        out.write("".join([_CSV_ROW % row for row in zip(
            range(start, start + n), *(column.tolist() for column in columns))]))
        start += n


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.out == "-":
        _write_sample(args, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            _write_sample(args, handle)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ent23`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ent23",
        description="Entanglement measures for qubit-qubit and qubit-qutrit "
                    "pure states, cross-verified along independent routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="print the measure report for a state file")
    compute.add_argument("state_file", help="path to a JSON state file")
    compute.add_argument("--format", choices=("text", "json"), default="text")
    compute.add_argument("--renormalize", action="store_true",
                         help="rescale amplitudes to unit norm before use")
    compute.set_defaults(func=_cmd_compute)

    verify = sub.add_parser(
        "verify", help="run the cross-formula verification suite")
    verify.add_argument("--n", type=_positive_int, default=1000,
                        help="number of random states (default 1000)")
    verify.add_argument("--seed", type=int, default=42,
                        help="ensemble seed (default 42)")
    verify.add_argument("--tol", type=_nonnegative_float, default=1e-10,
                        help="tolerance for the floating-point checks "
                             "(default 1e-10)")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=_cmd_verify)

    sample = sub.add_parser(
        "sample", help="write a CSV of measures over a random ensemble")
    sample.add_argument("--n", type=_positive_int, default=100,
                        help="number of states (default 100)")
    sample.add_argument("--seed", type=int, default=42,
                        help="ensemble seed (default 42)")
    sample.add_argument("--out", default="-",
                        help="output path, '-' for standard output")
    sample.set_defaults(func=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, StateFileError, ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
