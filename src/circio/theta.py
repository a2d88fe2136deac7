"""The block-shift vertex transform and its circulant images.

theta_{n,m,t} sends vertex x to x + (x mod m)*t*m (mod n). For most t the
image of a circulant edge set is not circulant; the interesting pairs are
the ones where it is and no unit multiplier explains the isomorphism.

Images are computed on jumps, not edges. Let D be the full difference set
of R and c = d mod m. theta keeps each residue class mod m, so theta(y) with
y = r (mod m) has neighbour set theta(y) + D'_r, where, mod n,

    D'_r = { d + ((r + c) mod m - r)*t*m : d in D }
         = { f(d) - [r + c >= m]*t*m^2 : d in D },  f(d) = d + c*t*m.

The class F_c = { f(d) : d = c (mod m) } stays in class c, and D'_r moves it
by -t*m^2 exactly when r >= m - c. So the image is circulant iff every F_c
with c != 0 is invariant under +t*m^2, and it is then reduce(D'_0), built in
one pass over D. F_c is D's class c translated, so this is the period rule:
t hits iff N + t*m^2 = N, N the non-multiples of m in D. N's periods are the
multiples of its least period p, a divisor of n, so the hits are the
multiples of p / gcd(p, m^2), and no image is built at a miss.

One edge-level check, _carries, certifies that theta carries C_n(a) onto
C_n(b) for theta_witness, classify's links and the scan's pair re-check,
without reading the rule above. The edges at y = r (mod m) land on
theta(y) + D'_r, so theta carries them all iff D'_r = D(b) for each r, and
that holds class by class: D's class c goes to class c of D'_r. Class 0
never moves; class c >= 1 moves by c*t*m when r + c < m and by (c - m)*t*m
otherwise, so r = 0 and r = m - 1 between them make every move there is.
The 2m - 1 class equalities are therefore D'_0 = D(b) and D'_{m-1} = D(b),
2|D| steps whatever m and n are. The tests' reference hands
theta_vertex_map to the oracle's verify_permutation; nothing here imports
the oracle.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator, Optional, Sequence

from .core import ConnectionSet, _set, _Value
from .errors import InvalidParams, WitnessMismatch


class ThetaParams(_Value):
    __slots__ = _fields = ("n", "m", "t")
    n: int
    m: int
    t: int

    def __init__(self, n: int, m: int, t: int) -> None:
        if m < 2:
            raise InvalidParams(f"m must be >= 2, got {m}")
        if n % (m ** 3) != 0:
            raise InvalidParams(f"m^3 = {m ** 3} must divide n = {n}")
        if not (0 <= t <= n // m - 1):
            raise InvalidParams(f"t = {t} outside [0, {n // m - 1}]")
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "t", t)


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


def _multiples(cs: ConnectionSet, m: int) -> frozenset[int]:
    return frozenset(j for j in cs.jumps if j % m == 0)


def _check_params(cs: ConnectionSet, m: int, t: int) -> None:
    ThetaParams(cs.n, m, t)
    if not _multiples(cs, m):
        raise InvalidParams(f"theta is undefined for n={cs.n}, m={m}, jumps={cs.jumps}")


def _hit_step(n: int, m: int, jumps: Sequence[int]) -> int:
    """The least t >= 1 that hits, p / gcd(p, m^2) for N's least period p:
    t hits exactly when this step divides it. It divides q = n/m^2, which
    always hits, so it is h/m^2 for the first level h with N + h = N, else q."""
    nonmult = {d for s in jumps for d in (s, n - s) if d % m}
    return next(
        (h // (m * m) for h in _levels(n, m) if all((v + h) % n in nonmult for v in nonmult)),
        n // (m * m),
    )


def _levels(n: int, m: int) -> list[int]:
    """The levels gcd(t*m^2, n) < n of the shifts t in [1, n/m - 1], ascending:
    m^2 d for each divisor d < q of q = n/m^2, listed in O(sqrt(q)) steps. t
    hits exactly the N with a period dividing its level h: the unions of h's
    atoms (_nonmultiple_atoms)."""
    q = n // (m * m)
    low = [d for d in range(1, isqrt(q) + 1) if q % d == 0]
    # The divisors above sqrt(q) but q itself, which is no level.
    high = [q // d for d in reversed(low) if 1 < d and d * d != q]
    return [m * m * d for d in low + high]


def _nonmultiple_atoms(n: int, m: int, h: int) -> list[tuple[int, ...]]:
    """Orbits of non-multiple residues under +h and negation, as reduced jumps.

    h is a multiple of m that divides n, so the orbit of d is
    (d + hZ) u (-d + hZ), and each orbit meets [1, h).
    """
    return sorted({
        tuple(sorted({min(v, n - v) for s in (d, n - d) for v in range(s % h, n, h)}))
        for d in range(1, h)
        if d % m
    })


def _jump_image(n: int, m: int, t: int, jumps: Sequence[int]) -> ConnectionSet:
    """Image of C_n(jumps) under theta_{n,m,t}, reduce(D'_0), at a t that hits.

    Callers decide the hit; jumps need hold no multiple of m. A circulant
    image's D'_0 is vertex 0's neighbour set in a loopless undirected graph,
    so it holds no 0 and is closed under negation: its jumps are the d <= n/2.
    """
    shift = t * m
    first = {(d + (d % m) * shift) % n for s in jumps for d in (s, n - s)}
    return ConnectionSet(n, tuple(sorted(d for d in first if 2 * d <= n)))


def theta_image(cs: ConnectionSet, m: int, t: int) -> Optional[ConnectionSet]:
    """Image connection set, or None when the image graph is not circulant."""
    _check_params(cs, m, t)
    return _jump_image(cs.n, m, t, cs.jumps) if t % _hit_step(cs.n, m, cs.jumps) == 0 else None


def _carries(a: ConnectionSet, b: ConnectionSet, m: int, t: int) -> None:
    """Raise WitnessMismatch unless theta at (m, t) carries the edges of
    C_n(a) exactly onto those of C_n(b), in 2|D| steps and with no vertex
    map. For y = r (mod m), theta(y + d) - theta(y) is the element of D'_r
    that d gives, so theta sends y's neighbours exactly onto theta(y)'s in
    C_n(b) iff D'_r = D(b); every vertex lies in one class r, and every
    D'_r holds only moves that D'_0 or D'_{m-1} makes (module docstring)."""
    params = ThetaParams(a.n, m, t)
    n, shift = a.n, t * m
    target = {d for s in b.jumps for d in (s, n - s)}
    # D'_0 moves class c by c*t*m. D'_{m-1} is D'_0 with each class c >= 1
    # moved back by t*m^2, so once D'_0 = D(b) it equals D(b) iff that move
    # keeps D(b) inside itself: the move is one-to-one and D(b) is finite.
    back = m * shift
    if (
        b.n != n
        or {(d + d % m * shift) % n for s in a.jumps for d in (s, n - s)} != target
        or any((e - back) % n not in target for e in target if e % m)
    ):
        raise WitnessMismatch(f"vertex map of {params} does not carry {a} onto {b}")


def theta_witness(cs: ConnectionSet, m: int, t: int) -> Optional[ConnectionSet]:
    """theta_image, returned only after _carries re-checks it edge by edge.

    Raises WitnessMismatch if theta does not carry the source edges exactly
    onto the edges of the image.
    """
    image = theta_image(cs, m, t)
    if image is not None:
        _carries(cs, image, m, t)
    return image


def jump_hits(n: int, m: int, jumps: Sequence[int]) -> Iterator[tuple[int, ConnectionSet]]:
    """(t, image) for each t in [1, n/m - 1] with a circulant image: the
    multiples of _hit_step, ascending. Like _jump_image, it validates nothing."""
    step = _hit_step(n, m, jumps)
    for t in range(step, n // m, step):
        yield t, _jump_image(n, m, t, jumps)


def theta_scan(cs: ConnectionSet, m: int) -> list[tuple[int, ConnectionSet]]:
    """All t in [1, n/m - 1] with a circulant image, ascending by t. Each
    image keeps exactly cs's multiples of m: the class rule maps every one
    to itself and keeps every other jump in its nonzero residue class."""
    _check_params(cs, m, 0)
    return list(jump_hits(cs.n, m, cs.jumps))
