"""Family enumeration, exhaustive small-order scans, and the two generators.

The order-54 families: take a 3-jump base with no multiple of 3 and adjoin
every nonempty subset of the nine reduced multiples of 3. Each row's triple
is (R, image at t=2, image at t=4) under m=3.

full_scan avoids the 2^(n/2) subset space by working on the non-multiple
"core" structure: for a shift t, the permuted edge set can only be circulant
when the non-multiple difference residues fall into orbits of the induced
shift, so candidate cores are unions of those orbits and everything else is
a multiple-of-m extension that rides along unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, TextIO

from .classify import TYPE2, Classification, TupleRecord, type1_verdict
from .core import CirculantGraph, ConnectionSet, reflexive_reduce
from .errors import (
    DegeneratePair,
    Intractable,
    InvalidIndex,
    InvalidParams,
    WitnessMismatch,
)
from .multipliers import adam_orbit, carrying_half_units, is_adam_equivalent
from .oracle import DEFAULT_BUDGET, IsoVerdict, isomorphic
from .theta import _jump_image, theta_image, theta_witness, valid_block_moduli

DEFAULT_SCAN_BUDGET = 20_000_000


def worker_count(workers: int | None = None) -> int:
    """circio runs in one process, so this is always 1. It stays only until
    perfbench stops reading it."""
    return 1


# ---------------------------------------------------------------------------
# order-54 families

FAMILY_POOL = (3, 6, 9, 12, 15, 18, 21, 24, 27)
FAMILY_BASES = {"a": (1, 17, 19), "b": (2, 16, 20)}


def family_row(source: ConnectionSet) -> TupleRecord:
    """One table row: source, its images at t=2 and t=4 under m=3, verdict.

    Raises WitnessMismatch when either image is not circulant.
    """
    img2 = theta_image(source, 3, 2)
    img4 = theta_image(source, 3, 4)
    if img2 is None or img4 is None:
        raise WitnessMismatch(f"{source} has no circulant image at t=2 and t=4")
    members = (source, img2, img4)
    orbit = adam_orbit(source)
    verdict = type1_verdict(members, orbit) or Classification(
        kind=TYPE2, orbit=orbit, m=3, t=2, chain=members
    )
    return TupleRecord(members=members, theta_images={2: img2, 4: img4}, verdict=verdict)


def enumerate_family(name: str) -> list[TupleRecord]:
    """All 511 rows of family "a" or "b", in table order."""
    if name not in FAMILY_BASES:
        raise InvalidParams(f"unknown family {name!r}, expected 'a' or 'b'")
    base = FAMILY_BASES[name]
    # Row order: by subset size, then lexicographic. Row 1 adjoins {3}, row
    # 511 the whole pool.
    return [
        family_row(ConnectionSet(54, tuple(sorted(base + ext))))
        for k in range(1, len(FAMILY_POOL) + 1)
        for ext in combinations(FAMILY_POOL, k)
    ]


# ---------------------------------------------------------------------------
# exhaustive scan machinery

def _nonmultiple_atoms(n: int, m: int, h: int) -> list[tuple[int, ...]]:
    """Orbits of non-multiple residues under +h and negation, as reduced jumps."""
    seen: set[int] = set()
    atoms: set[tuple[int, ...]] = set()
    for d in range(1, n):
        if d % m == 0 or d in seen:
            continue
        orbit: set[int] = set()
        stack = [d]
        while stack:
            v = stack.pop()
            if v in orbit:
                continue
            orbit.add(v)
            stack.append((v + h) % n)
            stack.append((n - v) % n)
        seen |= orbit
        atoms.add(tuple(sorted({min(v, n - v) for v in orbit})))
    return sorted(atoms)


def _levels(n: int, m: int) -> list[int]:
    """The distinct gcd(m^2 t, n) over the shifts t in [1, n/m - 1], ascending;
    degenerate shifts (m^2 t = 0 mod n) omitted."""
    return sorted(
        {math.gcd(m * m * t, n) for t in range(1, n // m) if m * m * t % n}
    )


def _fixed_masks(n: int, pool: Sequence[int], x: int) -> set[int]:
    """The masks of pool that the unit x maps onto themselves: the unions of
    x's cycles on pool. x and n - x reduce every jump alike, so they fix the
    same masks."""
    index = {j: i for i, j in enumerate(pool)}
    image = [index[min(x * j % n, n - x * j % n)] for j in pool]
    masks = [0]
    seen = 0
    for start in range(len(pool)):
        if seen >> start & 1:
            continue
        cycle, i = 0, start
        while not cycle >> i & 1:
            cycle |= 1 << i
            i = image[i]
        seen |= cycle
        masks += [mask | cycle for mask in masks]
    return set(masks)


def _mask_jumps(extension_pool: Sequence[int], mask: int) -> tuple[int, ...]:
    return tuple(j for i, j in enumerate(extension_pool) if mask >> i & 1)


def _verify_theta_pair(left: ConnectionSet, right: ConnectionSet, m: int, t: int) -> None:
    """Raise WitnessMismatch unless theta at (m, t) carries left onto right
    edge by edge and no unit multiplier does."""
    witness = theta_witness(left, m, t)
    if witness is None or witness.image != right:
        raise WitnessMismatch(f"no theta witness carries {left} onto {right}")
    if is_adam_equivalent(left, right) is not None:
        raise WitnessMismatch(f"a unit multiplier carries {left} onto {right}")


@dataclass(frozen=True)
class ScanReport:
    n: int
    convention: str
    counts: dict[str, int]
    records: list[TupleRecord]

    def _header(self) -> dict:
        return {"n": self.n, "convention": self.convention, "counts": dict(self.counts)}

    def to_json(self) -> dict:
        return {**self._header(), "records": [r.to_json() for r in self.records]}

    def write_json(self, fh: TextIO) -> None:
        """Write to_json() as json.dump(..., indent=2) and a newline would,
        one record at a time, so the whole report is never held as JSON."""
        fh.write("{\n")
        for key, value in self._header().items():
            fh.write(f"  {json.dumps(key)}: {_indented_json(value, 2)},\n")
        if not self.records:
            fh.write('  "records": []\n}\n')
            return
        fh.write('  "records": [\n')
        for i, record in enumerate(self.records):
            fh.write(",\n    " if i else "    ")
            fh.write(_indented_json(record.to_json(), 4))
        fh.write("\n  ]\n}\n")


def _indented_json(value: object, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads nested depth spaces deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + " " * depth)


_SCAN_CONVENTION = (
    "pairs: unordered {R,S} with R != S, a verified theta witness at some "
    "(m,t), and no unit multiplier carrying R to S; "
    "tuples: theta-closure classes of minimal non-multiple cores, one tuple "
    "per nonempty multiple-of-m extension not fixed by every unit in some "
    "linking coset; pair witnesses re-verified edge-level exhaustively for "
    "n <= 32 and on a 100-record sample at n = 54"
)


def full_scan(n: int, budget: int = DEFAULT_SCAN_BUDGET) -> ScanReport:
    """Count and list the non-multiplier isomorphisms at one order.

    Reports both counting conventions (see ScanReport.convention). Raises
    Intractable when the order or the induced search exceeds the ceiling.
    """
    if n < 2 or n > 54:
        raise Intractable(f"scan supports 2 <= n <= 54, got {n}")
    counts = {
        "type2_pairs_raw": 0,
        "type2_tuples_primitive": 0,
        "type1_tuples_primitive": 0,
    }
    records: list[TupleRecord] = []
    for m in valid_block_moduli(n):
        _scan_one_modulus(n, m, budget, counts, records)
    records.sort(key=lambda r: tuple(c.jumps for c in r.members))
    return ScanReport(
        n=n, convention=_SCAN_CONVENTION, counts=counts, records=records
    )


def _scan_one_modulus(
    n: int,
    m: int,
    budget: int,
    counts: dict[str, int],
    records: list[TupleRecord],
) -> None:
    extension_pool = tuple(j for j in range(m, n // 2 + 1, m))
    all_atoms: set[tuple[int, ...]] = set()
    cores: set[tuple[int, ...]] = set()
    for h in _levels(n, m):
        atoms = _nonmultiple_atoms(n, m, h)
        all_atoms.update(atoms)
        atom_sets = [set(a) for a in atoms]
        for r in range(1, len(atoms) + 1):
            for combo in combinations(range(len(atoms)), r):
                merged: set[int] = set()
                for i in combo:
                    merged |= atom_sets[i]
                cores.add(tuple(sorted(merged)))
    core_list = sorted(cores)
    t_range = n // m - 1
    if len(core_list) * t_range > budget:
        raise Intractable(
            f"core image phase needs {len(core_list) * t_range} image tests"
        )

    # Per core, t -> its jump-level image (None when not circulant).
    images = {
        core: {
            t: None if (img := _jump_image(n, m, t, core)) is None else img.jumps
            for t in range(1, n // m)
        }
        for core in core_list
    }

    core_set = set(core_list)
    linked: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple] = {}
    for core in core_list:
        for t in range(1, n // m):
            img = images[core][t]
            if img is None or img == core:
                continue
            if img not in core_set:
                raise WitnessMismatch(f"image {img} of {core} escaped the core lattice")
            key = (core, img) if core < img else (img, core)
            if key not in linked:
                linked[key] = (core, img, t)

    mask_work = len(linked) << len(extension_pool)
    if mask_work > budget:
        raise Intractable(f"pair counting phase needs {mask_work} mask tests")

    # Many core pairs share one coset of carrying units, so each coset's
    # set is built once.
    fixed_by: dict[tuple[int, ...], frozenset[int]] = {}

    def carried_fixed(src: tuple[int, ...], dst: tuple[int, ...]) -> frozenset[int]:
        """The masks fixed by some unit carrying core src onto core dst."""
        coset = carrying_half_units(ConnectionSet(n, src), ConnectionSet(n, dst))
        if coset not in fixed_by:
            fixed_by[coset] = frozenset().union(
                *(_fixed_masks(n, extension_pool, x) for x in coset)
            )
        return fixed_by[coset]

    # Nonempty extension masks giving core + extension at least 3 jumps.
    popcounts = [bin(mask).count("1") for mask in range(1 << len(extension_pool))]
    admissible = {
        size: [mask for mask in range(1, len(popcounts)) if size + popcounts[mask] >= 3]
        for size in {len(core) for core in core_list}
    }

    verify_all = n <= 32
    for key in sorted(linked):
        src, dst, t = linked[key]
        fixed = carried_fixed(src, dst)
        counted = [mask for mask in admissible[len(src)] if mask not in fixed]
        counts["type2_pairs_raw"] += len(counted)
        if not verify_all:
            continue
        for mask in counted:
            ext = _mask_jumps(extension_pool, mask)
            _verify_theta_pair(
                ConnectionSet(n, tuple(sorted(src + ext))),
                ConnectionSet(n, tuple(sorted(dst + ext))),
                m,
                t,
            )

    # Primitive tuples: classes chased from minimal cores only. Atoms of one
    # level are disjoint and every core is a union of them, so a core of two
    # or more atoms strictly contains an atom: the minimal cores are the
    # minimal atoms.
    atom_list = sorted(all_atoms)
    minimal = [
        a
        for a in atom_list
        if not any(b != a and set(b) < set(a) for b in atom_list)
    ]
    minimal_set = set(minimal)
    visited: set[tuple[int, ...]] = set()
    classes: list[list[tuple[int, ...]]] = []
    for seed in minimal:
        if seed in visited:
            continue
        group = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for t in range(1, n // m):
                img = images[cur][t]
                if img is None or img in group:
                    continue
                if img not in minimal_set:
                    raise WitnessMismatch(f"image {img} of a minimal core is not minimal")
                group.add(img)
                frontier.append(img)
        visited |= group
        classes.append(sorted(group))

    sample_budget = 0 if verify_all else 100
    for group in classes:
        if len(group) < 2:
            continue
        # A tuple is T1 when units carry group[0] onto every other member
        # and fix the extension. Their quotients then link any two members
        # the same way, since the units that fix a mask form a group.
        base_core = group[0]
        type1_masks = frozenset.intersection(
            *(carried_fixed(base_core, core) for core in group[1:])
        )
        base_hits = [
            (t, img)
            for t, img in sorted(images[base_core].items())
            if img is not None and img in group and img != base_core
        ]
        first_t = base_hits[0][0]
        for mask in admissible[len(base_core)]:
            if mask in type1_masks:
                counts["type1_tuples_primitive"] += 1
                continue
            counts["type2_tuples_primitive"] += 1
            ext = _mask_jumps(extension_pool, mask)
            members = tuple(
                ConnectionSet(n, tuple(sorted(core + ext))) for core in group
            )
            theta_images = {
                t: ConnectionSet(n, tuple(sorted(img + ext)))
                for t, img in base_hits
            }
            orbit = adam_orbit(members[0])
            verdict = Classification(
                kind=TYPE2, orbit=orbit, m=m, t=first_t, chain=members
            )
            record = TupleRecord(
                members=members, theta_images=theta_images, verdict=verdict
            )
            records.append(record)
            if sample_budget > 0:
                sample_budget -= 1
                _verify_theta_pair(members[0], theta_images[first_t], m, first_t)


# ---------------------------------------------------------------------------
# construction generators

def generate_a17c(k: int, s: int) -> tuple[ConnectionSet, ConnectionSet]:
    """The order-8k construction pair for index s.

    R = {2, 2s-1, 4k-(2s-1)} and S = {2, 2k-(2s-1), 2k+(2s-1)}, both reduced.
    The pair is degenerate (same graph) exactly when 2s-1 = k.
    """
    if k < 2:
        raise InvalidParams(f"k must be >= 2, got {k}")
    odd = 2 * s - 1
    if not (1 <= odd <= 2 * k - 1):
        raise InvalidParams(f"s = {s} out of range for k = {k}")
    if odd == k:
        raise DegeneratePair(f"2s-1 = k = {k} collapses the pair")
    n = 8 * k
    r = reflexive_reduce([2, odd, 4 * k - odd], n)
    s_set = reflexive_reduce([2, 2 * k - odd, 2 * k + odd], n)
    return r, s_set


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % q for q in range(3, int(math.isqrt(p)) + 1, 2))


def generate_c1(base: int, p: int, x: int, y: int, i: int) -> ConnectionSet:
    """Member i of the order base*p^3 construction chain.

    d_i = (i-1)*x*p*base + x + y*p; the jump list is {p, d_i, n-d_i, n-p}
    plus q*base*p^2 +- d_i for q = 1..p-1, all reduced. Members i and i+j
    are linked by the transform at t = j*base.
    """
    if base < 1:
        raise InvalidParams(f"base must be >= 1, got {base}")
    if not _is_odd_prime(p):
        raise InvalidParams(f"p must be an odd prime, got {p}")
    if not (1 <= i <= p):
        raise InvalidIndex(f"i = {i} outside [1, {p}]")
    if not (1 <= x <= p - 1):
        raise InvalidIndex(f"x = {x} outside [1, {p - 1}]")
    if not (0 <= y <= base * p - 1):
        raise InvalidIndex(f"y = {y} outside [0, {base * p - 1}]")
    n = base * p ** 3
    d = (i - 1) * x * p * base + x + y * p
    raw = [p, d, n - d, n - p]
    for q in range(1, p):
        raw.append(q * base * p * p + d)
        raw.append(q * base * p * p - d)
    return reflexive_reduce(raw, n)


# ---------------------------------------------------------------------------
# open-problem probes

_PROBE_PAIRS_48 = {
    "n48-a": ((1, None, 23), (None, 11, 13)),
    "n48-b": ((5, None, 19), (None, 7, 17)),
}
_PROBE_S_48 = (3, 9, 15, 21)
_PROBE_S_54 = (2, 4, 8, 10, 14, 16, 20, 22, 26)


@dataclass(frozen=True)
class ProbeEntry:
    group: str
    s: int
    left: ConnectionSet
    right: ConnectionSet
    verdict: IsoVerdict

    def describe(self) -> str:
        return (
            f"{self.group} s={self.s}: {self.left} vs {self.right} -> "
            f"{self.verdict.serialize()}"
        )

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "s": self.s,
            "left": str(self.left),
            "right": str(self.right),
            "verdict": self.verdict.serialize(),
        }


@dataclass(frozen=True)
class ProbeReport:
    entries: tuple[ProbeEntry, ...]

    def to_json(self) -> dict:
        return {"entries": [e.to_json() for e in self.entries]}

    def summary(self) -> str:
        return "\n".join(e.describe() for e in self.entries)


def _fill(template: tuple, s: int) -> list[int]:
    return [s if v is None else v for v in template]


def probe_open_problems(budget: int = DEFAULT_BUDGET) -> ProbeReport:
    """Oracle verdicts for the undecided non-isomorphism questions.

    Two shapes: order-48 pairs over s in {3,9,15,21} and order-54 triples
    (checked pairwise) over the nine even s with gcd(54, s) not divisible
    by 3. Verdicts are reported with certificates, never presumed.
    """
    entries: list[ProbeEntry] = []
    for group, (left_t, right_t) in _PROBE_PAIRS_48.items():
        for s in _PROBE_S_48:
            left = reflexive_reduce(_fill(left_t, s), 48)
            right = reflexive_reduce(_fill(right_t, s), 48)
            verdict = isomorphic(CirculantGraph(left), CirculantGraph(right), budget)
            entries.append(ProbeEntry(group, s, left, right, verdict))
    for s in _PROBE_S_54:
        triple = [
            reflexive_reduce([1, s, 17, 19], 54),
            reflexive_reduce([5, s, 13, 23], 54),
            reflexive_reduce([s, 7, 11, 25], 54),
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                verdict = isomorphic(
                    CirculantGraph(triple[i]), CirculantGraph(triple[j]), budget
                )
                entries.append(
                    ProbeEntry(f"n54-triple[{i}{j}]", s, triple[i], triple[j], verdict)
                )
    return ProbeReport(entries=tuple(entries))
