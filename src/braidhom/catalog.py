"""Constructors for the standard idempotent braidings, and their
classification on very small sets.

Families covered: identity, min/max on a chain, meet/join on a
distributive lattice, the braiding of an exact monoid factorization
G = HK on H u K, and the sixteen isomorphism classes on a two-element
set.  The flip is included as a non-idempotent control.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .braided import BoundExceeded, BraidedSet, BraidedSetError
from .monoid import FiniteMonoid


def identity_braiding(n: int) -> BraidedSet:
    if n < 1:
        raise BraidedSetError("need n >= 1")
    table = [[(x, y) for y in range(n)] for x in range(n)]
    return BraidedSet(table, name=f"identity:{n}")


def flip_braiding(n: int) -> BraidedSet:
    """sigma(x,y) = (y,x): involutive, not idempotent for n >= 2."""
    table = [[(y, x) for y in range(n)] for x in range(n)]
    return BraidedSet(table, name=f"flip:{n}")


def minmax_braiding(n: int) -> BraidedSet:
    if n < 1:
        raise BraidedSetError("need n >= 1")
    table = [[(min(x, y), max(x, y)) for y in range(n)] for x in range(n)]
    return BraidedSet(table, name=f"minmax:{n}")


# --- distributive lattices -------------------------------------------------

@dataclass
class FiniteLattice:
    size: int
    meet: tuple
    join: tuple

    def __post_init__(self):
        self.meet = tuple(tuple(row) for row in self.meet)
        self.join = tuple(tuple(row) for row in self.join)
        verify_distributive_lattice(self)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "meet": [list(r) for r in self.meet],
            "join": [list(r) for r in self.join],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteLattice":
        return cls(data["size"], data["meet"], data["join"])


def verify_distributive_lattice(lat: FiniteLattice) -> None:
    n, m, j = lat.size, lat.meet, lat.join
    rng = range(n)
    for x in rng:
        for y in rng:
            if m[x][y] != m[y][x]:
                raise BraidedSetError(f"meet not commutative at {(x, y)}")
            if j[x][y] != j[y][x]:
                raise BraidedSetError(f"join not commutative at {(x, y)}")
            if j[x][m[x][y]] != x:
                raise BraidedSetError(f"absorption x v (x ^ y) fails at {(x, y)}")
            if m[x][j[x][y]] != x:
                raise BraidedSetError(f"absorption x ^ (x v y) fails at {(x, y)}")
    for x, y, z in product(rng, repeat=3):
        if m[m[x][y]][z] != m[x][m[y][z]]:
            raise BraidedSetError(f"meet not associative at {(x, y, z)}")
        if j[j[x][y]][z] != j[x][j[y][z]]:
            raise BraidedSetError(f"join not associative at {(x, y, z)}")
        if m[x][j[y][z]] != j[m[x][y]][m[x][z]]:
            raise BraidedSetError(f"distributivity fails at {(x, y, z)}")


def chain_lattice(n: int) -> FiniteLattice:
    return FiniteLattice(
        n,
        [[min(x, y) for y in range(n)] for x in range(n)],
        [[max(x, y) for y in range(n)] for x in range(n)],
    )


def divisor_lattice(n: int) -> FiniteLattice:
    """Divisors of n under gcd and lcm, listed in increasing order."""
    from math import gcd

    divs = [d for d in range(1, n + 1) if n % d == 0]
    idx = {d: i for i, d in enumerate(divs)}
    meet = [[idx[gcd(a, b)] for b in divs] for a in divs]
    join = [[idx[a * b // gcd(a, b)] for b in divs] for a in divs]
    lat = FiniteLattice(len(divs), meet, join)
    lat.labels = divs
    return lat


def boolean_lattice(k: int) -> FiniteLattice:
    """Subsets of a k-element set as bitmasks, under intersection/union."""
    n = 1 << k
    meet = [[a & b for b in range(n)] for a in range(n)]
    join = [[a | b for b in range(n)] for a in range(n)]
    return FiniteLattice(n, meet, join)


def lattice_braiding(lat: FiniteLattice) -> BraidedSet:
    table = [
        [(lat.meet[x][y], lat.join[x][y]) for y in range(lat.size)]
        for x in range(lat.size)
    ]
    return BraidedSet(table, name=f"lattice:{lat.size}")


# --- exact factorizations --------------------------------------------------

@dataclass
class Factorization:
    """An exact factorization G = HK with its braiding on X = H u K.

    `elements` lists the G-indices forming X in increasing order;
    `braiding.pseudo_unit` is the position of G's unit in that list.
    """

    monoid: FiniteMonoid
    H: tuple[int, ...]
    K: tuple[int, ...]
    elements: tuple[int, ...]
    decompose: dict  # g -> (h, k) with hk = g
    braiding: BraidedSet

    def letter(self, g: int) -> int:
        return self.elements.index(g)


def exact_factorization(G: FiniteMonoid, H, K) -> Factorization:
    H = tuple(sorted(set(H)))
    K = tuple(sorted(set(K)))
    for part, label in ((H, "H"), (K, "K")):
        if not G.is_submonoid(part):
            raise BraidedSetError(f"{label} is not a submonoid")
    decompose: dict[int, tuple[int, int]] = {}
    for h in H:
        for k in K:
            g = G.mul(h, k)
            if g in decompose:
                raise BraidedSetError(
                    f"decomposition not unique: element {g} is {decompose[g]} and {(h, k)}"
                )
            decompose[g] = (h, k)
    if len(decompose) < G.size:
        missing = min(set(range(G.size)) - set(decompose))
        raise BraidedSetError(f"decomposition not surjective: element {missing} has no HK form")
    elements = tuple(sorted(set(H) | set(K)))
    pos = {g: i for i, g in enumerate(elements)}
    table = []
    for x in elements:
        row = []
        for y in elements:
            h, k = decompose[G.mul(x, y)]
            row.append((pos[h], pos[k]))
        table.append(row)
    braiding = BraidedSet(table, pseudo_unit=pos[G.unit], name=f"factorization:{G.size}")
    return Factorization(G, H, K, elements, decompose, braiding)


def trivial_factorization(G: FiniteMonoid) -> Factorization:
    """G = {1} G, giving sigma(g,g') = (1, gg') on G itself."""
    return exact_factorization(G, [G.unit], range(G.size))


# --- the two-element classification ---------------------------------------

def _size2_tables():
    mx = max
    mn = min
    return {
        "identity": lambda x, y: (x, y),
        "constant": lambda x, y: (0, 0),
        "left_id": lambda x, y: (x, x),
        "left_flip": lambda x, y: (x, 1 - x),
        "left_zero": lambda x, y: (x, 0),
        "right_id": lambda x, y: (y, y),
        "right_flip": lambda x, y: (1 - y, y),
        "right_zero": lambda x, y: (0, y),
        "add_left": lambda x, y: ((x + y) % 2, 0),
        "add_right": lambda x, y: (0, (x + y) % 2),
        "max_left": lambda x, y: (mx(x, y), 0),
        "max_right": lambda x, y: (0, mx(x, y)),
        "min_left": lambda x, y: (mn(x, y), y),
        "min_right": lambda x, y: (x, mn(x, y)),
        "maxmax": lambda x, y: (mx(x, y), mx(x, y)),
        "minmax": lambda x, y: (mn(x, y), mx(x, y)),
    }


SIZE2_TAGS = tuple(_size2_tables())


def size2_family(tag: str) -> BraidedSet:
    tables = _size2_tables()
    if tag not in tables:
        raise BraidedSetError(f"unknown size-2 tag {tag!r}; known: {', '.join(SIZE2_TAGS)}")
    f = tables[tag]
    return BraidedSet([[f(x, y) for y in range(2)] for x in range(2)], name=f"size2:{tag}")


# --- exhaustive enumeration ------------------------------------------------

@dataclass
class IsoClassReport:
    classes: list[BraidedSet]
    orbit_sizes: list[int]
    raw_count: int

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _relabeled(flat, n, phi):
    out = [None] * (n * n)
    for x in range(n):
        for y in range(n):
            a, b = flat[x * n + y]
            out[phi[x] * n + phi[y]] = (phi[a], phi[b])
    return tuple(out)


def canonical_form(bs: BraidedSet) -> tuple:
    n = bs.size
    flat = tuple(bs.sigma[x][y] for x in range(n) for y in range(n))
    return min(_relabeled(flat, n, phi) for phi in permutations(range(n)))


def _ybe_holds_flat(flat, n) -> bool:
    for x in range(n):
        for y in range(n):
            p, q = flat[x * n + y]
            for z in range(n):
                r, s = flat[q * n + z]
                u, v = flat[p * n + r]
                a, b = flat[y * n + z]
                c, d = flat[x * n + a]
                e, f = flat[d * n + b]
                if (u, v, s) != (c, e, f):
                    return False
    return True


def enumerate_idempotent_braidings(n: int) -> IsoClassReport:
    """All idempotent Yang-Baxter maps on an n-set, up to relabeling.

    An idempotent map is exactly: a set F of fixed pairs plus an
    arbitrary assignment of the remaining pairs into F, which prunes the
    search far below the |X^2|^|X^2| raw table count before the YBE
    filter runs.
    """
    if n > 3:
        raise BoundExceeded("enumeration bound exceeded")
    pairs = [(x, y) for x in range(n) for y in range(n)]
    npairs = len(pairs)
    by_canon: dict[tuple, list] = {}
    raw = 0
    for mask in range(1, 1 << npairs):
        fixed = [pairs[i] for i in range(npairs) if mask >> i & 1]
        free = [i for i in range(npairs) if not mask >> i & 1]
        for assignment in product(fixed, repeat=len(free)):
            flat = list(pairs)
            for slot, target in zip(free, assignment):
                flat[slot] = target
            flat = tuple(flat)
            if not _ybe_holds_flat(flat, n):
                continue
            raw += 1
            canon = min(_relabeled(flat, n, phi) for phi in permutations(range(n)))
            by_canon.setdefault(canon, []).append(flat)
    classes = []
    orbit_sizes = []
    for canon in sorted(by_canon):
        table = [[canon[x * n + y] for y in range(n)] for x in range(n)]
        classes.append(BraidedSet(table, name=f"class:{len(classes)}"))
        orbit_sizes.append(len(by_canon[canon]))
    return IsoClassReport(classes, orbit_sizes, raw)


def braided_set_isomorphic(a: BraidedSet, b: BraidedSet):
    """A relabeling bijection carrying sigma_a to sigma_b, or None."""
    if a.size != b.size:
        return None
    n = a.size
    for phi in permutations(range(n)):
        ok = True
        for x in range(n):
            for y in range(n):
                p, q = a.sigma[x][y]
                if b.sigma[phi[x]][phi[y]] != (phi[p], phi[q]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return phi
    return None
