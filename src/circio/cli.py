"""Command-line driver: classification, enumeration, export, golden checks.

The CSV/JSONL writers live in circio.export; this module binds them too.

Exit codes: 0 on success, 1 when verify-goldens finds a verdict mismatch or
a certificate fails its self-check (WitnessMismatch), 2 on usage errors
(including parameter values the library rejects and output paths that cannot
be written; every --out is checked before any work).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .classify import classify_pair, classify_tuple
from .constructions import generate_a17c, generate_c1
from .core import ConnectionSet
from .enumeration import DEFAULT_SCAN_BUDGET, enumerate_family, full_scan
from .errors import CircioError, WitnessMismatch
from .export import export_csv, export_jsonl, verdict_counts
from .goldens import verify_goldens
from .multipliers import adam_orbit
from .oracle import DEFAULT_BUDGET
from .probes import probe_open_problems
from .theta import theta_image


def _connection_set(text: str) -> ConnectionSet:
    try:
        return ConnectionSet.parse(text)
    except (ValueError, CircioError) as exc:
        raise argparse.ArgumentTypeError(f"bad connection set {text!r}: {exc}") from exc


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=0")
    return value


def _check_writable(path: str) -> None:
    """Raise the OSError for path now, before any work is done.

    An existing file is opened without truncation; a new one is removed again.
    """
    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def _orbit(args: argparse.Namespace) -> int:
    """Print every multiplier image of CONNECTION_SET, one per line."""
    for member in adam_orbit(args.connection_set):
        print(member)
    return 0


def _theta(args: argparse.Namespace) -> int:
    """Apply the block-shift transform; print the image or 'not circulant'."""
    img = theta_image(args.connection_set, args.m, args.t)
    print(img if img is not None else "not circulant")
    return 0


def _classify(args: argparse.Namespace) -> int:
    """Classify two or more sets; print the verdict and its witness."""
    print(classify_tuple(args.connection_sets, budget=args.budget).verdict.describe())
    return 0


def _enumerate_family(args: argparse.Namespace) -> int:
    """Enumerate all 511 rows of one family and write them to --out."""
    _check_writable(args.out)
    print(f"enumerating family {args.family} (511 rows)...", file=sys.stderr)
    records = enumerate_family(args.family)
    tally = verdict_counts(records)
    (export_jsonl if args.out.endswith(".jsonl") else export_csv)(records, args.out)
    print(
        f"family {args.family}: {len(records)} rows, {tally['T2']} T2, {tally['T1']} T1"
        f" -> {args.out}"
    )
    return 0


def _scan(args: argparse.Namespace) -> int:
    """Exhaustively scan one order and write a JSON report to --out."""
    print(f"scanning n={args.n}...", file=sys.stderr)
    _check_writable(args.out)
    report = full_scan(args.n, budget=args.budget)
    with open(args.out, "w", encoding="utf-8") as fh:
        report.write_json(fh)
    parts = ", ".join(f"{k}={v}" for k, v in sorted(report.counts.items()))
    print(f"n={args.n}: {parts} -> {args.out}")
    return 0


def _generate(args: argparse.Namespace) -> int:
    """Run one construction and classify its output."""
    if args.a17c:
        left, right = generate_a17c(*args.a17c)
        print(f"{left}\n{right}")
        print(classify_pair(left, right).describe())
        return 0
    base, p, x, y = args.c1
    # Member 1 validates all four values, also when p <= 0 leaves no chain.
    chain = (generate_c1(base, p, x, y, 1),)
    chain += tuple(generate_c1(base, p, x, y, i) for i in range(2, p + 1))
    for member in chain:
        print(member)
    print(classify_tuple(chain).verdict.describe())
    return 0


def _probe_open(args: argparse.Namespace) -> int:
    """Run the oracle over the undecided pair/triple questions."""
    if args.out is not None:
        _check_writable(args.out)
    print("probing open questions (35 oracle runs)...", file=sys.stderr)
    report = probe_open_problems(budget=args.budget)
    print(report.summary())
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    return 0


def _verify_goldens(args: argparse.Namespace) -> int:
    """Recompute the embedded table rows; exit 1 on any verdict mismatch."""
    report = verify_goldens()
    print(report.summary())
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circio", description="Isomorphism tooling for circulant graphs."
    )
    parser.add_argument("--version", action="version", version=f"circio, version {__version__}")
    commands = parser.add_subparsers(
        title="commands", dest="command", metavar="COMMAND", required=True
    )

    def command(name: str, run) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run, parser=sub)
        return sub

    def budget(sub: argparse.ArgumentParser, default: int, text: str) -> None:
        help_text = f"{text} (default: {default})"
        sub.add_argument("--budget", type=_budget, default=default, help=help_text)

    sub = command("orbit", _orbit)
    sub.add_argument("connection_set", type=_connection_set, metavar="CONNECTION_SET")

    sub = command("theta", _theta)
    sub.add_argument("--m", type=int, required=True, help="Block modulus.")
    sub.add_argument("--t", type=int, required=True, help="Shift index.")
    sub.add_argument("connection_set", type=_connection_set, metavar="CONNECTION_SET")

    sub = command("classify", _classify)
    budget(sub, DEFAULT_BUDGET, "Oracle search-node budget.")
    sub.add_argument("connection_sets", type=_connection_set, nargs="+", metavar="CONNECTION_SET")

    family = command("enumerate-family", _enumerate_family)
    family.add_argument(
        "--family", choices=["a", "b"], required=True, help="Which order-54 family to enumerate."
    )
    family.add_argument(
        "--out", required=True, help="Output file; a .jsonl suffix selects JSON lines, else CSV."
    )

    scan = command("scan", _scan)
    scan.add_argument("--n", type=int, required=True, help="Graph order to scan.")
    scan.add_argument("--out", required=True, help="Report file (JSON).")
    budget(scan, DEFAULT_SCAN_BUDGET, "Ceiling on scan work units.")
    # Accepted and ignored: circio runs in one process. Kept only until
    # perfbench stops passing --workers 1.
    for sub in (family, scan):
        sub.add_argument("--workers", type=int, help=argparse.SUPPRESS)

    mode = command("generate", _generate).add_mutually_exclusive_group(required=True)
    mode.add_argument("--a17c", type=int, nargs=2, metavar=("K", "S"), help="Order-8k pair.")
    mode.add_argument(
        "--c1", type=int, nargs=4, metavar=("BASE", "P", "X", "Y"), help="Order-base*p^3 chain."
    )

    sub = command("probe-open", _probe_open)
    budget(sub, DEFAULT_BUDGET, "Oracle search-node budget per pair.")
    sub.add_argument("--out", help="Optional JSON report file.")

    command("verify-goldens", _verify_goldens)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand and return its exit code.

    argparse exits 2 on its own for a malformed command line (0 for --help
    and --version).
    """
    args = _PARSER.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away (circio ... | head): exit 1 without a traceback.
        # stdout now points at devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except WitnessMismatch as exc:
        code, message = 1, f"not certified: {exc}"
    except CircioError as exc:
        code, message = 2, str(exc)
    except OSError as exc:
        if getattr(args, "out", None) is None:
            raise
        code, message = 2, f"cannot write {args.out}: {exc.strerror or exc}"
    if code == 2:
        args.parser.print_usage(sys.stderr)
    print(f"{args.parser.prog}: error: {message}", file=sys.stderr)
    return code


def _main_shim(args: Sequence[str], prog_name: str = "", standalone_mode: bool = False) -> int:
    """main(args) under the call perfbench makes: main.main(args=..., prog_name=...,
    standalone_mode=...). The other two arguments are ignored."""
    return main(args)


main.main = _main_shim  # type: ignore[attr-defined]


if __name__ == "__main__":
    sys.exit(main())
