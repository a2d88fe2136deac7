"""The block-shift vertex transform and its circulant images.

theta_{n,m,t} sends vertex x to x + (x mod m)*t*m (mod n). For most t the
image of a circulant edge set is not circulant; the interesting pairs are
the ones where it is and no unit multiplier explains the isomorphism.

Images are computed on jumps, not edges. Let D be the full difference set
of R. theta keeps each residue class mod m, so a vertex z = theta(y) with
y = r (mod m) has neighbour set z + D'_r, where

    D'_r = { d + (((r + d) mod m) - r)*t*m  mod n : d in D }.

The image is circulant iff D'_0 = D'_1 = ... = D'_{m-1}, and it is then
reduce(D'_0). That is O(m*|R|) work instead of O(n*|R|). theta_witness is
the only edge-level certificate: it checks with oracle.verify_permutation
that the vertex permutation carries every edge of the source onto an edge
of the jump-level image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import CirculantGraph, ConnectionSet
from .errors import InvalidParams, WitnessMismatch
from .oracle import verify_permutation


@dataclass(frozen=True)
class ThetaParams:
    n: int
    m: int
    t: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise InvalidParams(f"m must be >= 2, got {self.m}")
        if self.n % (self.m ** 3) != 0:
            raise InvalidParams(f"m^3 = {self.m ** 3} must divide n = {self.n}")
        if not (0 <= self.t <= self.n // self.m - 1):
            raise InvalidParams(f"t = {self.t} outside [0, {self.n // self.m - 1}]")


@dataclass(frozen=True)
class ThetaWitness:
    params: ThetaParams
    source: ConnectionSet
    image: ConnectionSet
    vertex_map: tuple[int, ...]


def valid_block_moduli(n: int) -> list[int]:
    """All m >= 2 with m cubed dividing n, ascending."""
    out = []
    m = 2
    while m ** 3 <= n:
        if n % (m ** 3) == 0:
            out.append(m)
        m += 1
    return out


def theta_vertex_map(params: ThetaParams) -> tuple[int, ...]:
    """The permutation x -> x + (x mod m)*t*m mod n.

    It keeps every residue class mod m and translates within it, so it is a
    bijection whenever m divides n, which ThetaParams guarantees.
    """
    n, m, t = params.n, params.m, params.t
    return tuple((x + (x % m) * t * m) % n for x in range(n))


def _has_multiple(cs: ConnectionSet, m: int) -> bool:
    return any(j % m == 0 for j in cs.jumps)


def _check_params(cs: ConnectionSet, m: int, t: int) -> ThetaParams:
    params = ThetaParams(cs.n, m, t)
    if not _has_multiple(cs, m):
        raise InvalidParams(f"theta is undefined for n={cs.n}, m={m}, jumps={cs.jumps}")
    return params


def _jump_image(
    n: int, m: int, t: int, jumps: Sequence[int]
) -> Optional[ConnectionSet]:
    """Image of C_n(jumps) under theta_{n,m,t} by the D'_r rule, or None.

    Needs no multiple of m in jumps and does not validate its arguments;
    callers check eligibility first. A circulant image's D'_0 is the
    neighbour set of vertex 0 in a loopless undirected graph, so it holds
    no 0 and is closed under negation: its reduced jumps are the d <= n/2.
    """
    diffs = [d for s in jumps for d in (s, n - s)]
    shift = t * m
    first = {(d + (d % m) * shift) % n for d in diffs}
    for r in range(1, m):
        if {(d + ((r + d) % m - r) * shift) % n for d in diffs} != first:
            return None
    return ConnectionSet(n, tuple(sorted(d for d in first if 2 * d <= n)))


def theta_image(cs: ConnectionSet, m: int, t: int) -> Optional[ConnectionSet]:
    """Image connection set, or None when the image graph is not circulant."""
    _check_params(cs, m, t)
    if t == 0:
        return cs
    return _jump_image(cs.n, m, t, cs.jumps)


def theta_witness(cs: ConnectionSet, m: int, t: int) -> Optional[ThetaWitness]:
    """Like theta_image, plus an end-to-end edge bijection re-check.

    Raises WitnessMismatch if the vertex map does not carry the source edges
    exactly onto the edges of the image.
    """
    params = _check_params(cs, m, t)
    image = theta_image(cs, m, t)
    if image is None:
        return None
    perm = theta_vertex_map(params)
    # The witness must certify a genuine isomorphism, not just a jump match.
    if not verify_permutation(CirculantGraph(cs), CirculantGraph(image), perm):
        raise WitnessMismatch(
            f"vertex map of {params} does not carry {cs} onto {image}"
        )
    return ThetaWitness(params, cs, image, perm)


def theta_scan(cs: ConnectionSet, m: int) -> list[tuple[int, ConnectionSet]]:
    """All t in [1, n/m - 1] with a circulant image, ascending by t."""
    _check_params(cs, m, 0)
    hits = []
    mults = {j for j in cs.jumps if j % m == 0}
    for t in range(1, cs.n // m):
        img = _jump_image(cs.n, m, t, cs.jumps)
        if img is not None:
            # Multiples of m ride through every successful transform unchanged.
            if {j for j in img.jumps if j % m == 0} != mults:
                raise WitnessMismatch(
                    f"image {img} of {cs} at t={t} moved a multiple of {m}"
                )
            hits.append((t, img))
    return hits
