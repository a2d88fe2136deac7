#!/usr/bin/env python3
"""Regenerate both order-54 family tables and check the embedded golden rows.

Writes family_a.csv and family_b.csv into --out-dir (default: cwd), prints
per-family verdict tallies, then runs the golden-row recomputation and
prints its report. Exits 1 if any golden verdict disagrees, 2 when the
library rejects its input or an output path cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from circio import CircioError, enumerate_family, family, verify_goldens
from circio.export import export_csv, verdict_counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        total_t2 = 0
        for name in ("a", "b"):
            records = enumerate_family(family(name))
            path = args.out_dir / f"family_{name}.csv"
            export_csv(records, path)
            tally = verdict_counts(records)
            total_t2 += tally["T2"]
            print(
                f"family {name}: {len(records)} rows "
                f"({tally['T2']} T2, {tally['T1']} T1) -> {path}"
            )
        print(f"combined Type-2 triples: {total_t2}")
        report = verify_goldens()
    except CircioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        path = exc.filename or args.out_dir
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
