"""Command-line front end.

Subcommands: ``compute`` prints the full measure report for one state file,
``verify`` runs the cross-formula check suite over a random ensemble, and
``sample`` writes a CSV of measures over a random ensemble.  Exit codes are
0 on success, 1 when verification fails, 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
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
    # parse_state_file decodes the bytes and reports bad UTF-8.  Read through
    # Path, so that an OSError names the path normalized ("./a//b" as "a/b").
    psi = parse_state_file(Path(args.state_file).read_bytes(), renormalize=args.renormalize)
    report = full_report(psi).as_dict()
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write("".join([f"{name:<13} {value:.15g}\n"
                                  for name, value in report.items()]))
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


def _cmd_sample(args: argparse.Namespace) -> int:
    # haar_chunks checks --n at the call: a rejected count opens no file.
    chunks = haar_chunks((2, 3), RandomStream(args.seed), args.n)
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", encoding="utf-8", newline="")) as out:
        # Each chunk's rows are written before the next chunk is drawn.
        out.write(_CSV_HEADER + "\n")
        start = 0
        for chunk in chunks:
            rep = full_report(chunk)
            columns = (rep.c_amplitude, rep.eof, rep.u_norm, rep.v_norm, rep.k1, rep.k2)
            n = len(rep.k1)
            # "%.12g" % x and format(x, ".12g") are the same PyOS_double_to_string call.
            out.write("".join([_CSV_ROW % row for row in zip(
                range(start, start + n), *(column.tolist() for column in columns))]))
            start += n
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``ent23`` parser and each command's own parser, built once per process."""
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
    verify.add_argument("--n", type=int, default=1000,
                        help="number of random states (default 1000)")
    verify.add_argument("--seed", type=int, default=42,
                        help="ensemble seed (default 42)")
    verify.add_argument("--tol", type=float, default=1e-10,
                        help="tolerance for the floating-point checks "
                             "(default 1e-10)")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=_cmd_verify)

    sample = sub.add_parser(
        "sample", help="write a CSV of measures over a random ensemble")
    sample.add_argument("--n", type=int, default=100,
                        help="number of states (default 100)")
    sample.add_argument("--seed", type=int, default=42,
                        help="ensemble seed (default 42)")
    sample.add_argument("--out", default="-",
                        help="output path, '-' for standard output")
    sample.set_defaults(func=_cmd_sample)

    return parser, {"compute": compute, "verify": verify, "sample": sample}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parsers()
    # A command's arguments go to its own parser alone, which reports any it
    # leaves over under its own usage.  The top-level parser takes the rest:
    # help and a missing or unknown command.
    command = commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        return args.func(args)
    except (ValidationError, StateFileError, ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
