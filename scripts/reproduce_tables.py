#!/usr/bin/env python3
"""Regenerate both order-54 family tables and check them against the
exhaustive order-54 scan and the embedded golden rows.

Writes family_a.csv and family_b.csv into --out-dir (default: cwd), prints
per-family verdict tallies, checks that the Type-2 triples of full_scan(54)
are, as member sets, exactly the family T2 rows, then runs the golden-row
recomputation and prints its report. Exits 1 if the scan and the families
disagree, any golden verdict does or a certificate fails its self-check,
2 when the library rejects its input or an output path cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from circio import (
    TYPE2,
    CircioError,
    WitnessMismatch,
    enumerate_family,
    full_scan,
    verify_goldens,
)
from circio.export import export_csv, verdict_counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        total_t2 = 0
        family_t2 = set()
        for name in ("a", "b"):
            records = enumerate_family(name)
            path = args.out_dir / f"family_{name}.csv"
            export_csv(records, path)
            tally = verdict_counts(records)
            total_t2 += tally["T2"]
            family_t2 |= {frozenset(r.members) for r in records if r.verdict.kind == TYPE2}
            print(
                f"family {name}: {len(records)} rows "
                f"({tally['T2']} T2, {tally['T1']} T1) -> {path}"
            )
        print(f"combined Type-2 triples: {total_t2}")
        scanned = [frozenset(r.members) for r in full_scan(54).records]
        scan_agrees = len(scanned) == len(family_t2) and set(scanned) == family_t2
        if scan_agrees:
            print(
                f"the exhaustive order-54 scan finds {len(scanned)} Type-2 triples, "
                "all of them family rows"
            )
        else:
            print(
                f"error: the exhaustive order-54 scan finds {len(scanned)} Type-2 "
                f"triples, {len(set(scanned) - family_t2)} of them not family rows, "
                f"and misses {len(family_t2 - set(scanned))} of the "
                f"{len(family_t2)} family T2 rows",
                file=sys.stderr,
            )
        report = verify_goldens()
    except WitnessMismatch as exc:
        print(f"error: not certified: {exc}", file=sys.stderr)
        return 1
    except CircioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        path = exc.filename or args.out_dir
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok and scan_agrees else 1


if __name__ == "__main__":
    sys.exit(main())
