"""Command-line driver: classification, enumeration, export, golden checks.

The CSV/JSONL writers live in circio.export; this module binds them too.

Exit codes: 0 on success, 1 when verify-goldens finds a verdict mismatch or
a certificate fails its self-check (WitnessMismatch), 2 on usage errors
(including parameter values the library rejects and output paths that cannot
be written; every --out is checked before any work).
"""

from __future__ import annotations

import json
import os
from typing import Optional

import click

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

def _parse_set(text: str) -> ConnectionSet:
    try:
        return ConnectionSet.parse(text)
    except (ValueError, CircioError) as exc:
        raise click.UsageError(f"bad connection set {text!r}: {exc}") from exc


def _unwritable(path: str, exc: OSError) -> click.UsageError:
    return click.UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _check_writable(path: str) -> None:
    """Raise the usage error for path now, before any work is done.

    An existing file is opened without truncation; a new one is removed again.
    """
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    if not existed:
        os.remove(path)


def _write_json(data: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise _unwritable(path, exc) from exc


# Accepted and ignored: circio runs in one process. Kept only until perfbench
# stops passing --workers 1.
_IGNORED_WORKERS = click.option("--workers", type=int, hidden=True, expose_value=False)


class _Command(click.Command):
    """A failed certificate exits 1; any other CircioError is a usage error."""

    def invoke(self, ctx: click.Context) -> object:
        try:
            return super().invoke(ctx)
        except WitnessMismatch as exc:
            raise click.ClickException(f"not certified: {exc}") from exc
        except CircioError as exc:
            raise click.UsageError(str(exc), ctx) from exc


@click.group()
@click.version_option(__version__, prog_name="circio")
def main() -> None:
    """Isomorphism tooling for circulant graphs."""


main.command_class = _Command


@main.command("orbit")
@click.argument("connection_set")
def orbit_cmd(connection_set: str) -> None:
    """Print every multiplier image of CONNECTION_SET, one per line."""
    cs = _parse_set(connection_set)
    for member in adam_orbit(cs):
        click.echo(str(member))


@main.command("theta")
@click.option("--m", "m", type=int, required=True, help="Block modulus.")
@click.option("--t", "t", type=int, required=True, help="Shift index.")
@click.argument("connection_set")
def theta_cmd(m: int, t: int, connection_set: str) -> None:
    """Apply the block-shift transform; print the image or 'not circulant'."""
    img = theta_image(_parse_set(connection_set), m, t)
    click.echo(str(img) if img is not None else "not circulant")


@main.command("classify")
@click.option(
    "--budget",
    type=click.IntRange(min=0),
    default=DEFAULT_BUDGET,
    show_default=True,
    help="Oracle search-node budget.",
)
@click.argument("connection_sets", nargs=-1, required=True)
def classify_cmd(budget: int, connection_sets: tuple[str, ...]) -> None:
    """Classify two or more sets; print the verdict and its witness."""
    sets = [_parse_set(text) for text in connection_sets]
    click.echo(classify_tuple(sets, budget=budget).verdict.describe())


@main.command("enumerate-family")
@click.option(
    "--family",
    "family_name",
    type=click.Choice(["a", "b"]),
    required=True,
    help="Which order-54 family to enumerate.",
)
@click.option(
    "--out",
    "out_path",
    type=click.Path(dir_okay=False, writable=True),
    required=True,
    help="Output file; a .jsonl suffix selects JSON-lines, anything else CSV.",
)
@_IGNORED_WORKERS
def enumerate_family_cmd(family_name: str, out_path: str) -> None:
    """Enumerate all 511 rows of one family and write them to --out."""
    _check_writable(out_path)
    click.echo(f"enumerating family {family_name} (511 rows)...", err=True)
    records = enumerate_family(family_name)
    tally = verdict_counts(records)
    try:
        if out_path.endswith(".jsonl"):
            export_jsonl(records, out_path)
        else:
            export_csv(records, out_path)
    except OSError as exc:
        raise _unwritable(out_path, exc) from exc
    click.echo(
        f"family {family_name}: {len(records)} rows, {tally['T2']} T2, {tally['T1']} T1"
        f" -> {out_path}"
    )


@main.command("scan")
@click.option("--n", "n", type=int, required=True, help="Graph order to scan.")
@click.option(
    "--out",
    "out_path",
    type=click.Path(dir_okay=False, writable=True),
    required=True,
    help="Report file (JSON).",
)
@click.option(
    "--budget",
    type=click.IntRange(min=0),
    default=DEFAULT_SCAN_BUDGET,
    show_default=True,
    help="Ceiling on scan work units.",
)
@_IGNORED_WORKERS
def scan_cmd(n: int, out_path: str, budget: int) -> None:
    """Exhaustively scan one order and write a JSON report to --out."""
    click.echo(f"scanning n={n}...", err=True)
    _check_writable(out_path)
    report = full_scan(n, budget=budget)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            report.write_json(fh)
    except OSError as exc:
        raise _unwritable(out_path, exc) from exc
    parts = ", ".join(f"{k}={v}" for k, v in sorted(report.counts.items()))
    click.echo(f"n={n}: {parts} -> {out_path}")


@main.command("generate")
@click.option(
    "--a17c",
    "a17c_args",
    type=int,
    nargs=2,
    default=None,
    metavar="K S",
    help="Order-8k pair construction.",
)
@click.option(
    "--c1",
    "c1_args",
    type=int,
    nargs=4,
    default=None,
    metavar="BASE P X Y",
    help="Order-base*p^3 chain construction.",
)
def generate_cmd(
    a17c_args: Optional[tuple[int, int]], c1_args: Optional[tuple[int, int, int, int]]
) -> None:
    """Run one construction and classify its output."""
    if (a17c_args is None) == (c1_args is None):
        raise click.UsageError("pass exactly one of --a17c or --c1")
    if a17c_args is not None:
        left, right = generate_a17c(*a17c_args)
        click.echo(f"{left}\n{right}")
        click.echo(classify_pair(left, right).describe())
    else:
        base, p, x, y = c1_args
        chain = tuple(generate_c1(base, p, x, y, i) for i in range(1, p + 1))
        for member in chain:
            click.echo(str(member))
        click.echo(classify_tuple(chain).verdict.describe())


@main.command("probe-open")
@click.option(
    "--budget",
    type=click.IntRange(min=0),
    default=DEFAULT_BUDGET,
    show_default=True,
    help="Oracle search-node budget per pair.",
)
@click.option(
    "--out",
    "out_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Optional JSON report file.",
)
def probe_open_cmd(budget: int, out_path: Optional[str]) -> None:
    """Run the oracle over the undecided pair/triple questions."""
    if out_path is not None:
        _check_writable(out_path)
    click.echo("probing open questions (35 oracle runs)...", err=True)
    report = probe_open_problems(budget=budget)
    click.echo(report.summary())
    if out_path is not None:
        _write_json(report.to_json(), out_path)


@main.command("verify-goldens")
@click.pass_context
def verify_goldens_cmd(ctx: click.Context) -> None:
    """Recompute the embedded table rows; exit 1 on any verdict mismatch."""
    report = verify_goldens()
    click.echo(report.summary())
    if not report.ok:
        ctx.exit(1)


if __name__ == "__main__":
    main()
