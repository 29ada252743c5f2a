"""Command-line front end: computations and verification suites as reports.

Exit codes: 0 success (all checks pass), 1 a suite failed, 2 usage error,
3 unsupported parameters, 4 under-truncation (the minimal sufficient degree
is printed), 5 an internal error, such as a violated invariant.
Output is deterministic for a given configuration; rationals are emitted in
lowest terms as strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .core import Params
from .errors import SpringerRcaError, UnderTruncationError, UnsupportedParametersError
from .operators import DressPolynomial, commutator, minuscule_monopole
from .verify import SUITES, Truncation, applicable_suites, run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_UNDER_TRUNCATION = 4
EXIT_INVARIANT = 5

# each --op and the options it takes besides --n, --k and --max-degree
OPERATORS = {
    "X": (), "Y": (), "E": (), "F": (), "H": (),
    "Er": ("r", "dress"), "Fr": ("r", "dress"),
    "monopole": ("coweight", "dress"),
    "commutator-XY": (),
}
# each --dress and the degree of its elementary symmetric polynomial;
# e_0 = 1 is no dressing
DRESSINGS = {"1": 0, "e1": 1, "e2": 2}


class UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="springer-rca",
        description=(
            "Exact monopole-operator computations and verification suites "
            "for Hilbert schemes of the curve x^n = t^k"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None, help="matrix size n")
        p.add_argument("--k", type=int, default=None, help="t-degree k")
        p.add_argument(
            "--max-degree", "-D", type=int, default=None, dest="max_degree",
            help="graded truncation degree",
        )
        p.add_argument(
            "--format", choices=("json", "csv"), default=None, dest="format",
            help="output format (default json)",
        )
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None, help="key=value config file")

    p_fixed = sub.add_parser("fixed-points", help="enumerate fixed points per degree")
    common(p_fixed)

    p_op = sub.add_parser("operator", help="serialize an operator's matrix blocks")
    common(p_op)
    p_op.add_argument("--op", choices=OPERATORS, default=None, help="operator name")
    p_op.add_argument("--r", type=int, default=None, help="coweight size for Er/Fr")
    p_op.add_argument(
        "--dress", choices=DRESSINGS, default=None,
        help="dressing polynomial for Er/Fr/monopole (default 1)",
    )
    p_op.add_argument(
        "--coweight", default=None,
        help="comma-separated minuscule coweight for --op monopole, e.g. 1,1,0",
    )

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument(
        "--suite", choices=(*SUITES, "all"), default=None, help="suite name"
    )
    return parser, sub.choices


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = list(handle)
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: config file is not UTF-8 text: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _config_value(action, key, value):
    """A config value through the same type and choices as its flag."""
    if action.type is not None:
        try:
            value = action.type(value)
        except ValueError:
            raise UsageError(
                f"config key {key!r} must be an integer, got {value!r}"
            ) from None
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"config key {key!r} must be one of {', '.join(action.choices)}, "
            f"got {value!r}"
        )
    return value


def _merge_config(args, command_parser):
    """Fill the options left unset from the config file; flags win.

    The keys are the subcommand's own options other than ``--config``.
    Every value is checked, also one that a flag overrides.
    """
    if not args.config:
        return args
    actions = {
        action.dest: action
        for action in command_parser._actions
        if action.dest not in ("help", "config")
    }
    for key, value in _load_config(args.config).items():
        if key not in actions:
            raise UsageError(f"unknown config key {key!r}")
        value = _config_value(actions[key], key, value)
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _params(args, *names):
    """The command's ``Params``, built once ``--n``, ``--k`` and ``names`` are set.

    A missing option (exit 2) is reported before a non-coprime (n, k),
    which ``Params`` refuses (exit 3).
    """
    _require(args, "n", "k", *names)
    try:
        return Params(args.n, args.k)
    except ValueError as exc:
        if isinstance(exc, SpringerRcaError):
            raise
        raise UsageError(str(exc))


def _write(stream, args, payload, csv_rows):
    if (args.format or "json") == "json":
        # json.dump writes the encoder's chunks one at a time, never one string
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        # only a CSV report loads the csv module
        import csv

        csv.writer(stream, lineterminator="\n").writerows(csv_rows())


def _emit(args, payload, csv_rows):
    """Write ``payload`` as JSON, or the rows ``csv_rows()`` yields as CSV.

    The rows are made only for ``--format csv``.
    """
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            _write(handle, args, payload, csv_rows)
    else:
        _write(sys.stdout, args, payload, csv_rows)


def _payload(args, command, results):
    return {
        "params": {"n": args.n, "k": args.k, "max_degree": args.max_degree},
        "command": command,
        "results": results,
        "version": __version__,
    }


def cmd_fixed_points(args):
    params = _params(args, "max_degree")
    strata = Truncation(params, args.max_degree).basis.strata
    results = {
        "counts": [len(s) for s in strata],
        "strata": [
            {"degree": d, "count": len(s), "labels": [list(a) for a in s]}
            for d, s in enumerate(strata)
        ],
    }

    def csv_rows():
        yield ("degree", "index", "label")
        for d, stratum in enumerate(strata):
            for i, label in enumerate(stratum):
                yield (d, i, " ".join(str(x) for x in label))

    _emit(args, _payload(args, "fixed-points", results), csv_rows)
    return EXIT_OK


def _build_operator(args, run):
    """The operator named by ``--op``, read from ``run``'s operators."""
    n = run.params.n
    name = args.op
    degree = DRESSINGS[args.dress or "1"]
    dress = DressPolynomial.elementary(n, degree) if degree else None
    for option, value in (("r", args.r), ("coweight", args.coweight), ("dress", dress)):
        if value is not None and option not in OPERATORS[name]:
            what = "a dressing" if option == "dress" else f"--{option}"
            raise UsageError(f"operator {name} does not take {what}")
    try:
        if name in ("Er", "Fr"):
            _require(args, "r")
            return run.monopole(1 if name == "Er" else -1, args.r, dress)
        if name == "monopole":
            # the raw coweight route: the dressing is evaluated at phi as given
            _require(args, "coweight")
            try:
                vector = tuple(int(x) for x in args.coweight.split(","))
            except ValueError:
                raise UsageError(f"cannot parse coweight {args.coweight!r}")
            if len(vector) != n:
                raise UsageError(f"coweight must have length n = {n}")
            return minuscule_monopole(run.basis, vector, dress)
    except ValueError as exc:
        # the monopole's own refusal of --r or of the charge
        if isinstance(exc, SpringerRcaError):
            raise
        raise UsageError(str(exc))
    if name == "commutator-XY":
        return commutator(run.x, run.y)
    return getattr(run, name.lower())  # X, Y, E, F or H


def _operator_results(args, params):
    """The ``operator`` report's results, each degree of the operator read once.

    The operator is released when this returns, before the report is written.
    """
    op = _build_operator(args, Truncation(params, args.max_degree))
    blocks = []
    for d in op.domain():
        block = op.block(d)
        # tuples, not lists: the JSON and CSV bytes are the same, the
        # report held in memory is smaller
        entries = [
            (i, j, str(value)) for (i, j), value in sorted(block.entries.items())
        ]
        blocks.append(
            {
                "degree": d,
                "rows": block.nrows,
                "cols": block.ncols,
                "entries": entries,
            }
        )
    return {"operator": args.op, "shift": op.shift, "blocks": blocks}


def cmd_operator(args):
    params = _params(args, "max_degree", "op")
    results = _operator_results(args, params)

    def csv_rows():
        yield ("degree", "row", "col", "value")
        for block in results["blocks"]:
            d = block["degree"]
            yield from ((d, i, j, v) for i, j, v in block["entries"])

    _emit(args, _payload(args, "operator", results), csv_rows)
    return EXIT_OK


def cmd_verify(args):
    needed = ("suite",) if args.suite == "stabilizer" else ("suite", "max_degree")
    params = _params(args, *needed)
    run = Truncation(params, args.max_degree)
    if args.suite == "all":
        names = applicable_suites(run)
        skipped = [s for s in SUITES if s not in names]
    else:
        names = [args.suite]
        skipped = []
    reports = [run_suite(name, run) for name in names]
    all_passed = all(r.passed for r in reports)
    results = {
        "suites": [
            {"suite": name, **report.to_dict()}
            for name, report in zip(names, reports)
        ],
        "skipped_suites": skipped,
        "all_passed": all_passed,
    }

    def csv_rows():
        yield ("suite", "status", "claim")
        yield from ((name, r.status, r.claim) for name, r in zip(names, reports))

    _emit(args, _payload(args, "verify", results), csv_rows)
    return EXIT_OK if all_passed else 1


COMMANDS = {
    "fixed-points": cmd_fixed_points,
    "operator": cmd_operator,
    "verify": cmd_verify,
}


def main(argv=None):
    parser, command_parsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        args = _merge_config(args, command_parsers[args.command])
        if args.max_degree is not None and args.max_degree < 0:
            raise UsageError("--max-degree must be nonnegative")
        return COMMANDS[args.command](args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnderTruncationError as exc:
        print(f"error: under-truncation: {exc}", file=sys.stderr)
        return EXIT_UNDER_TRUNCATION
    except UnsupportedParametersError as exc:
        print(f"error: unsupported parameters: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except SpringerRcaError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
