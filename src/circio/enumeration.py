"""Family enumeration and exhaustive small-order scans.

The order-54 families: take a 3-jump base with no multiple of 3 and adjoin
every nonempty subset of the nine reduced multiples of 3. Each row's triple
is (R, image at t=2, image at t=4) under m=3.

full_scan avoids the 2^(n/2) subset space by working on non-multiple
"cores". By the period rule in theta.py, a shift's image is circulant exactly
when the non-multiples are invariant under its level gcd(t*m^2, n), so the
candidate cores are unions of one level's atoms, and everything else is a
multiple-of-m extension that rides along unchanged. The least level h that
builds a core gives its hit step h/m^2, so its images are built at the
multiples of that step only, and the image phase's work gate counts exactly
those images. The cores fall into theta classes (a core and its circulant
images): the raw pairs are the pairs inside a class, and the primitive
tuples are the classes of minimal cores, each with one extension. A record
is its (class core, extension mask) pair. A unit x keeps multiples of m and
non-multiples apart, so it maps that pair to (x*core, x*mask), x*mask read
from x's mask table: the orbits come from each unit's image of the core and
its table. A tuple is Type-1 when each other core is the first core's image
under some unit whose table maps the tuple's mask to itself.
"""

from __future__ import annotations

import json
from itertools import chain, combinations
from operator import attrgetter
from typing import Sequence, TextIO

from .classify import TYPE2, Classification, TupleRecord, type1_verdict
from .core import ConnectionSet, _Value
from .errors import Intractable, InvalidParams, WitnessMismatch
from .export import _RecordText
from .multipliers import _half_units, _images, _same_size, adam_orbit, carrying_half_units
from .multipliers import is_adam_equivalent
from .theta import _carries, _jump_image, _levels, _nonmultiple_atoms, jump_hits
from .theta import valid_block_moduli

DEFAULT_SCAN_BUDGET = 20_000_000

_jumps = attrgetter("jumps")
# Records per write in ScanReport.write_json: few writes, and a chunk's text
# stays small beside the report's.
_WRITE_CHUNK = 256


def worker_count(workers: int | None = None) -> int:
    """circio runs in one process, so this is always 1. It stays only until
    perfbench stops reading it."""
    return 1


# ---------------------------------------------------------------------------
# order-54 families

FAMILY_POOL = (3, 6, 9, 12, 15, 18, 21, 24, 27)
FAMILY_BASES = {"a": (1, 17, 19), "b": (2, 16, 20)}


def family_rows(name: str, rows: Sequence[int]) -> list[TupleRecord]:
    """Rows of family "a" or "b" by number, in the order asked: source, its
    images at t=2 and t=4 under m=3, verdict. Rows run from 1 ({3} adjoined
    to the base) to 511 (the whole pool), by extension size, then
    lexicographic. A family is one theta class: theta fixes the multiples of
    3, so a row's images are its base's images plus its extension. Raises
    WitnessMismatch when either base image is not circulant."""
    if name not in FAMILY_BASES:
        raise InvalidParams(f"unknown family {name!r}, expected 'a' or 'b'")
    extensions = [e for k in range(1, len(FAMILY_POOL) + 1) for e in combinations(FAMILY_POOL, k)]
    bad = [row for row in rows if not 1 <= row <= len(extensions)]
    if bad:
        raise InvalidParams(f"family rows run from 1 to {len(extensions)}, got {bad[0]}")
    base = FAMILY_BASES[name]
    images = dict(jump_hits(54, 3, base))
    if 2 not in images or 4 not in images:
        raise WitnessMismatch(f"{ConnectionSet(54, base)} has no circulant image at t=2 and t=4")
    records = []
    for row in rows:
        members = tuple(
            ConnectionSet(54, tuple(sorted(jumps + extensions[row - 1])))
            for jumps in (base, images[2].jumps, images[4].jumps)
        )
        orbit = adam_orbit(members[0])
        verdict = type1_verdict(members, orbit) or Classification(
            kind=TYPE2, orbit=orbit, m=3, t=2, chain=members
        )
        theta_images = {2: members[1], 4: members[2]}
        records.append(TupleRecord(members=members, theta_images=theta_images, verdict=verdict))
    return records


def enumerate_family(name: str) -> list[TupleRecord]:
    """All 511 rows of family "a" or "b", in table order."""
    return family_rows(name, range(1, 2 ** len(FAMILY_POOL)))


# ---------------------------------------------------------------------------
# exhaustive scan machinery

def _mask_tables(n: int, pool: Sequence[int]) -> dict[int, list[int]]:
    """unit x <= n/2 -> its mask table: entry k is the mask of x times the
    pool jumps of mask k, reduced. Raises WitnessMismatch unless every such x
    permutes pool, as units do the multiples of any m | n."""
    bit = {j: 1 << i for i, j in enumerate(pool)}
    tables = {}
    for x in _half_units(n):
        images = [bit.get(min(x * j % n, n - x * j % n), 0) for j in pool]
        if sorted(images) != list(bit.values()):
            raise WitnessMismatch(f"the unit {x} does not permute {pool} mod {n}")
        table = [0]
        for b in images:
            table += [k | b for k in table]
        tables[x] = table
    return tables


class _CoreSets(dict):
    """mask -> the set core + exts[mask] of order n, one dict per core and
    modulus. A set is built or taken from sets (jumps -> set, shared by the
    whole scan, so each distinct set is one object) on its pair's first use,
    so a member or an orbit set is found by its (core, mask) pair without
    sorting or hashing its jumps again."""

    def __init__(
        self,
        n: int,
        core: tuple[int, ...],
        exts: list[tuple[int, ...]],
        sets: dict[tuple[int, ...], ConnectionSet],
    ) -> None:
        super().__init__()
        self.n = n
        self.core = core
        self.exts = exts
        self.sets = sets

    def __missing__(self, mask: int) -> ConnectionSet:
        jumps = tuple(sorted(self.core + self.exts[mask]))
        sets = self.sets
        cs = sets.get(jumps)
        if cs is None:
            cs = sets[jumps] = ConnectionSet(self.n, jumps)
        self[mask] = cs
        return cs


def _pair_orbit(
    image_at: list[_CoreSets], table_list: list[list[int]], mask: int
) -> tuple[ConnectionSet, ...]:
    """The Ádám orbit of core + exts[mask], core holding no multiple of m,
    sorted by jumps. image_at[i] is the _CoreSets of the i-th unit x <= n/2
    times core, and table_list[i] is x's mask table: x*(core + ext) is
    x*core + x*ext. Equal sets are one object, so identity tells them apart."""
    images = [at[table[mask]] for at, table in zip(image_at, table_list)]
    return tuple(sorted({id(cs): cs for cs in images}.values(), key=_jumps))


def _verify_theta_pair(left: ConnectionSet, right: ConnectionSet, m: int, t: int) -> None:
    """Raise WitnessMismatch unless theta at (m, t) carries left onto right
    edge by edge, checked one residue class at a time, and no unit
    multiplier does."""
    _carries(left, right, m, t)
    if is_adam_equivalent(left, right) is not None:
        raise WitnessMismatch(f"a unit multiplier carries {left} onto {right}")


_SCAN_CONVENTION = (
    "pairs: unordered {R,S} with R != S, a verified theta witness at some "
    "(m,t), and no unit multiplier carrying R to S; "
    "tuples: theta-closure classes of minimal non-multiple cores, one tuple "
    "per nonempty multiple-of-m extension not fixed by every unit in some "
    "linking coset; pair witnesses re-verified edge-level exhaustively for "
    "n <= 32 and on a 100-record sample at n = 54"
)


class ScanReport(_Value):
    __slots__ = _fields = ("n", "counts", "records")
    n: int
    counts: dict[str, int]
    records: list[TupleRecord]
    # Every report counts by this one convention, so it is not a field.
    convention = _SCAN_CONVENTION

    def __init__(self, n: int, counts: dict[str, int], records: list[TupleRecord]) -> None:
        self._init(n, counts, records)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "convention": self.convention,
            "counts": dict(self.counts),
            "records": [r.to_json() for r in self.records],
        }

    def write_json(self, fh: TextIO) -> None:
        """Write to_json() as json.dump(..., indent=2) and a newline would,
        one record at a time. The text comes from the records' fields, not
        from their to_json() dicts, and each distinct set is quoted once per
        call."""
        # json escapes every newline inside a string, so each one in
        # json.dumps' indented text is layout and can take the extra depth.
        counts = json.dumps(self.counts, indent=2).replace("\n", "\n  ")
        fh.write(
            f'{{\n  "n": {json.dumps(self.n)},\n  "convention": {json.dumps(self.convention)},\n'
            f'  "counts": {counts},\n'
        )
        if not self.records:
            fh.write('  "records": []\n}\n')
            return
        fh.write('  "records": [\n    ')
        render = _RecordText(4)
        records = self.records
        for start in range(0, len(records), _WRITE_CHUNK):
            if start:
                fh.write(",\n    ")
            fh.write(",\n    ".join(map(render, records[start:start + _WRITE_CHUNK])))
        fh.write("\n  ]\n}\n")


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
    sets: dict[tuple[int, ...], ConnectionSet] = {}
    for m in valid_block_moduli(n):
        _scan_one_modulus(n, m, budget, counts, records, sets)
    # One m's records are distinct (class core, mask) pairs with distinct first
    # members, so this key orders them fully; two moduli could repeat a member.
    records.sort(key=lambda r: r.members[0].jumps)
    # Every set of one scan has order n, so equal jumps are equal sets.
    for a, b in zip(records, records[1:]):
        if a.members[0].jumps == b.members[0].jumps:
            raise WitnessMismatch(f"two scan records start with {a.members[0]}")
    return ScanReport(n=n, counts=counts, records=records)


def _scan_one_modulus(
    n: int,
    m: int,
    budget: int,
    counts: dict[str, int],
    records: list[TupleRecord],
    sets: dict[tuple[int, ...], ConnectionSet],
) -> None:
    extension_pool = tuple(range(m, n // 2 + 1, m))
    tables = _mask_tables(n, extension_pool)
    all_atoms: set[tuple[int, ...]] = set()
    # core -> its hit step h / m^2, h the least (first) level that builds it.
    cores: dict[tuple[int, ...], int] = {}
    for h in _levels(n, m):
        atoms = _nonmultiple_atoms(n, m, h)
        all_atoms.update(atoms)
        # Atoms of one level are disjoint: a union of them is their concatenation.
        for r in range(1, len(atoms) + 1):
            for combo in combinations(atoms, r):
                cores.setdefault(tuple(sorted(chain.from_iterable(combo))), h // (m * m))
    image_count = sum((n // m - 1) // step for step in cores.values())
    if image_count > budget:
        raise Intractable(f"core image phase needs {image_count} images")

    # Per core, t -> its jump-level image, for the t where it is circulant.
    images = {
        core: {t: _jump_image(n, m, t, core).jumps for t in range(step, n // m, step)}
        for core, step in sorted(cores.items())
    }

    # theta_s after theta_t is theta_{s+t}, t taken mod n/m, so a seed's
    # class is the seed and its circulant images, and theta at
    # shift[b] - shift[a] carries member a onto member b. Every member must
    # be a core whose images stay in the class.
    placed: set[tuple[int, ...]] = set()
    classes: list[dict[tuple[int, ...], int]] = []
    for seed in images:
        if seed in placed:
            continue
        shift = {seed: 0}
        for t, img in images[seed].items():
            shift.setdefault(img, t)
        for core in shift:
            if core not in images:
                raise WitnessMismatch(f"image {core} of {seed} escaped the core lattice")
            if any(img not in shift for img in images[core].values()):
                raise WitnessMismatch(f"an image of {core} leaves its theta class")
        placed.update(shift)
        classes.append(shift)

    pair_count = sum(len(shift) * (len(shift) - 1) // 2 for shift in classes)
    mask_work = pair_count << len(extension_pool)
    if mask_work > budget:
        raise Intractable(f"pair counting phase needs {mask_work} mask tests")

    # Many core pairs share one coset of carrying units, so each coset's
    # set is built once.
    fixed_by: dict[tuple[int, ...], frozenset[int]] = {}

    def carried_fixed(src: tuple[int, ...], dst: tuple[int, ...]) -> frozenset[int]:
        """The masks fixed by some unit carrying core src onto core dst: x
        fixes mask k when its table maps k to itself."""
        coset = carrying_half_units(ConnectionSet(n, src), ConnectionSet(n, dst))
        if coset not in fixed_by:
            fixed_by[coset] = frozenset(
                k for x in coset for k, image in enumerate(tables[x]) if image == k
            )
        return fixed_by[coset]

    # exts[mask]: the pool jumps of mask, ascending.
    exts: list[tuple[int, ...]] = [()]
    for j in extension_pool:
        exts += [ext + (j,) for ext in exts]
    # at[core][mask] is the set core + exts[mask]; the dicts live for this m.
    at = {core: _CoreSets(n, core, exts, sets) for core in cores}
    # Nonempty extension masks giving core + extension at least 3 jumps.
    masks = range(1, 1 << len(extension_pool))
    admissible = {
        size: [mask for mask in masks if size + mask.bit_count() >= 3]
        for size in {len(core) for core in cores}
    }

    # Every core is a union of atoms of one level, so a core of two or more
    # atoms strictly contains an atom: the minimal cores are the minimal atoms.
    minimal = {a for a in all_atoms if not any(set(b) < set(a) for b in all_atoms)}
    verify_all = n <= 32
    sample_budget = 0 if verify_all else 100
    table_list = list(tables.values())
    # An orbit, once built, is found from the id of each of its sets, which
    # sets keeps alive for the whole scan.
    orbit_of: dict[int, tuple[ConnectionSet, ...]] = {}
    for shift in classes:
        group = sorted(shift)
        # Raw pairs: two members of the class and an admissible extension
        # that no unit carrying one core onto the other fixes.
        for src, dst in combinations(group, 2):
            fixed = carried_fixed(src, dst)
            counted = [mask for mask in admissible[len(src)] if mask not in fixed]
            counts["type2_pairs_raw"] += len(counted)
            if not verify_all:
                continue
            t = (shift[dst] - shift[src]) % (n // m)
            src_at, dst_at = at[src], at[dst]
            for mask in counted:
                _verify_theta_pair(src_at[mask], dst_at[mask], m, t)

        # Primitive tuples: the classes of minimal cores, one per extension.
        if len(group) < 2 or minimal.isdisjoint(group):
            continue
        for core in group:
            if core not in minimal:
                raise WitnessMismatch(f"{core} in a class of minimal cores is not minimal")
        # A tuple is T1 when units carry group[0] onto every other member
        # and fix the extension. Their quotients then link any two members
        # the same way, since the units that fix a mask form a group.
        base_core = group[0]
        type1_masks = frozenset.intersection(
            *(carried_fixed(base_core, core) for core in group[1:])
        )
        # Every image core lies in the class (checked above), so each theta
        # image is the member at that core's place in group.
        place = {core: i for i, core in enumerate(group)}
        base_hits = [
            (t, place[img]) for t, img in images[base_core].items() if img != base_core
        ]
        first_t = base_hits[0][0]
        base = ConnectionSet(n, base_core)
        core_images = _images(base)
        _same_size(base, core_images)
        # Units map the atoms of a level onto atoms of it, so cores onto cores.
        for img in core_images:
            if img not in at:
                raise WitnessMismatch(f"the unit image {img} of {base_core} is not a core")
        image_at = [at[img] for img in core_images]
        type2_masks = [mask for mask in admissible[len(base_core)] if mask not in type1_masks]
        counts["type1_tuples_primitive"] += len(admissible[len(base_core)]) - len(type2_masks)
        counts["type2_tuples_primitive"] += len(type2_masks)
        # One column of sets per core of the class; a row is one record's members.
        columns = [list(map(at[core].__getitem__, type2_masks)) for core in group]
        for mask, members in zip(type2_masks, zip(*columns)):
            orbit = orbit_of.get(id(members[0]))
            if orbit is None:
                orbit = _pair_orbit(image_at, table_list, mask)
                orbit_of.update(dict.fromkeys(map(id, orbit), orbit))
            theta_images = {t: members[i] for t, i in base_hits}
            verdict = Classification(kind=TYPE2, orbit=orbit, m=m, t=first_t, chain=members)
            records.append(
                TupleRecord(members=members, theta_images=theta_images, verdict=verdict)
            )
            if sample_budget > 0:
                sample_budget -= 1
                _verify_theta_pair(members[0], theta_images[first_t], m, first_t)
