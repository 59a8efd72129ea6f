"""Quantum shuffle machinery on words over a braided set, and the induced
operations on cochains: cup product, its dendriform split, the circle
product, and the homotopy identities relating them.

Permutations are tuples in 0-indexed one-line notation and act through
canonical reduced braid words; by the braid relations any reduced word of
the same permutation acts identically whenever the Yang-Baxter equation
holds (a debug helper cross-checks two different reduced words).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

from .braided import (
    BraidedSet,
    BraidedSetError,
    CheckReport,
    Word,
    apply_braid_word,
    invert_permutation,
    inversions,
    reduced_word,
    move_strand_left,
    move_strand_right,
)

Combination = dict  # Word -> int, zero coefficients never stored


def _add(comb: Combination, key, coeff: int) -> None:
    new = comb.get(key, 0) + coeff
    if new:
        comb[key] = new
    else:
        comb.pop(key, None)


@dataclass(frozen=True)
class Shuffle:
    perm: tuple[int, ...]
    length: int  # number of inversions
    word: tuple[int, ...]  # canonical reduced braid word
    inverse_word: tuple[int, ...]


@lru_cache(maxsize=None)
def shuffle_set(p: int, q: int) -> tuple[Shuffle, ...]:
    """All (p,q)-shuffles of S_{p+q}, each with its length and a fixed
    reduced word; a shuffle is determined by the image set of the first
    block."""
    k = p + q
    out = []
    for first_block in combinations(range(k), p):
        rest = [v for v in range(k) if v not in first_block]
        perm = tuple(first_block) + tuple(rest)
        out.append(
            Shuffle(
                perm,
                inversions(perm),
                reduced_word(perm),
                reduced_word(invert_permutation(perm)),
            )
        )
    return tuple(out)


def lift_cross_check(bs: BraidedSet, perm: tuple[int, ...], w: Word) -> CheckReport:
    a = apply_braid_word(bs, w, reduced_word(perm))
    b = apply_braid_word(bs, w, reduced_word(perm, from_right=True))
    if a != b:
        return CheckReport(False, (perm, w), f"two reduced words act differently: {a} vs {b}")
    return CheckReport(True)


def shuffle_product(bs: BraidedSet, v: Word, w: Word, signed: bool = True) -> Combination:
    """v shuffled with w through the braiding, one term per (p,q)-shuffle,
    signed by (-1)^length when requested."""
    vw = v + w
    out: Combination = {}
    for s in shuffle_set(len(v), len(w)):
        coeff = -1 if signed and s.length % 2 else 1
        _add(out, apply_braid_word(bs, vw, s.word), coeff)
    return out


def shuffle_coproduct(bs: BraidedSet, w: Word, p: int, q: int, signed: bool = True) -> Combination:
    """Combination over pairs (length-p word, length-q word)."""
    if len(w) != p + q:
        raise BraidedSetError(f"word length {len(w)} != {p}+{q}")
    out: Combination = {}
    for s in shuffle_set(p, q):
        u = apply_braid_word(bs, w, s.inverse_word)
        coeff = -1 if signed and s.length % 2 else 1
        _add(out, (u[:p], u[p:]), coeff)
    return out


@lru_cache(maxsize=None)
def _all_lifts(k: int):
    return tuple((inversions(s), reduced_word(s)) for s in permutations(range(k)))


def quantum_symmetrizer(bs: BraidedSet, w: Word) -> Combination:
    """Alternating sum of all permutation actions on w; vanishes on words
    with a sigma-fixed adjacent pair."""
    out: Combination = {}
    for length, word in _all_lifts(len(w)):
        _add(out, apply_braid_word(bs, w, word), -1 if length % 2 else 1)
    return out


def iterated_signed_shuffle(bs: BraidedSet, w: Word) -> Combination:
    """The letters of w combined by the signed shuffle product, one at a
    time; equals the quantum symmetrizer."""
    out: Combination = {(): 1} if not w else {(w[0],): 1}
    for letter in w[1:]:
        nxt: Combination = {}
        for term, c in out.items():
            for t2, c2 in shuffle_product(bs, term, (letter,), signed=True).items():
                _add(nxt, t2, c * c2)
        out = nxt
    return out


def reduced_quantum_symmetrizer(bs: BraidedSet, e: int, w: Word) -> Combination:
    """Quantum symmetrizer followed by erasing the pseudo-unit: terms in
    which e occurs reduce to tuples with an empty component and are
    dropped."""
    return {t: c for t, c in quantum_symmetrizer(bs, w).items() if e not in t}


# --- cochains ---------------------------------------------------------------

@dataclass(frozen=True)
class CoeffRing:
    """Z or Z/m with trivial braided-set actions."""

    modulus: int | None = None

    def normalize(self, v: int) -> int:
        return v if self.modulus is None else v % self.modulus

    def __str__(self) -> str:
        return "Z" if self.modulus is None else f"Z/{self.modulus}"

    @classmethod
    def parse(cls, text: str) -> "CoeffRing":
        text = text.strip()
        if text == "Z":
            return cls()
        if text.startswith("Z/"):
            return cls(int(text[2:]))
        raise BraidedSetError(f"unknown coefficient ring {text!r}")


class Cochain:
    """A map X^k -> coefficients, stored sparsely; missing words are zero."""

    def __init__(self, degree: int, coeff, values=None):
        self.degree = degree
        self.coeff = coeff
        self.values = {}
        if values:
            for w, v in values.items():
                self[tuple(w)] = v

    @property
    def _zero(self):
        if isinstance(self.coeff, CoeffRing):
            return 0
        return (0,) * self.coeff.rank

    def __getitem__(self, w: Word):
        return self.values.get(tuple(w), self._zero)

    def __setitem__(self, w: Word, v):
        if isinstance(self.coeff, CoeffRing):
            v = self.coeff.normalize(v)
            if v:
                self.values[tuple(w)] = v
            else:
                self.values.pop(tuple(w), None)
        else:
            v = tuple(v)
            if any(v):
                self.values[tuple(w)] = v
            else:
                self.values.pop(tuple(w), None)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.coeff == other.coeff
            and self.values == other.values
        )

    def __repr__(self):
        return f"Cochain(degree={self.degree}, coeff={self.coeff}, support={len(self.values)})"

    def to_json(self) -> dict:
        if not isinstance(self.coeff, CoeffRing):
            raise BraidedSetError("only ring-valued cochains serialize to JSON")
        return {
            "degree": self.degree,
            "ring": str(self.coeff),
            "values": {",".join(map(str, w)): v for w, v in sorted(self.values.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cochain":
        ring = CoeffRing.parse(data["ring"])
        degree = data["degree"]
        values = {}
        for key, v in data["values"].items():
            w = tuple(int(t) for t in key.split(",")) if key else ()
            if len(w) != degree:
                raise BraidedSetError(f"value key {key!r} has length {len(w)}, expected {degree}")
            values[w] = v
        return cls(degree, ring, values)


def seeded_cochain(bs: BraidedSet, degree: int, ring: CoeffRing, rng, span: int = 5) -> Cochain:
    f = Cochain(degree, ring)
    for w in product(range(bs.size), repeat=degree):
        f[w] = rng.randrange(-span, span + 1)
    return f


def is_critical_cochain(bs: BraidedSet, f: Cochain, pseudo_unit: int | None = None) -> bool:
    from .complexes import is_critical_word

    return all(is_critical_word(bs, w, pseudo_unit) for w in f.values)


def _mul(coeff, a, b):
    if isinstance(coeff, CoeffRing):
        return coeff.normalize(a * b)
    return coeff.multiply(a, b)


def _require_same_coeff(f: Cochain, g: Cochain):
    if f.coeff != g.coeff and f.coeff is not g.coeff:
        raise BraidedSetError("coefficient mismatch between cochains")


def cup_product(bs: BraidedSet, f: Cochain, g: Cochain) -> Cochain:
    """(f cup g)(w) = sum over (p,q)-shuffles s of (-1)^|s| of the product
    of f and g on the two blocks of the s-inverse action on w."""
    _require_same_coeff(f, g)
    p, q = f.degree, g.degree
    out = Cochain(p + q, f.coeff)
    shuffles = shuffle_set(p, q)
    for w in product(range(bs.size), repeat=p + q):
        acc = None
        for s in shuffles:
            u = apply_braid_word(bs, w, s.inverse_word)
            term = _mul(f.coeff, f[u[:p]], g[u[p:]])
            if s.length % 2:
                term = _neg(f.coeff, term)
            acc = term if acc is None else _addval(f.coeff, acc, term)
        out[w] = acc
    return out


def _neg(coeff, v):
    if isinstance(coeff, CoeffRing):
        return coeff.normalize(-v)
    return tuple(-t for t in v)


def _addval(coeff, a, b):
    if isinstance(coeff, CoeffRing):
        return coeff.normalize(a + b)
    return tuple(s + t for s, t in zip(a, b))


def cup_left_right(bs: BraidedSet, f: Cochain, g: Cochain) -> tuple[Cochain, Cochain]:
    """Dendriform split of the cup product: shuffles keeping the first
    f-argument first vs. those moving the first g-argument first."""
    _require_same_coeff(f, g)
    p, q = f.degree, g.degree
    left = Cochain(p + q, f.coeff)
    right = Cochain(p + q, f.coeff)
    for w in product(range(bs.size), repeat=p + q):
        for s in shuffle_set(p, q):
            u = apply_braid_word(bs, w, s.inverse_word)
            term = _mul(f.coeff, f[u[:p]], g[u[p:]])
            if s.length % 2:
                term = _neg(f.coeff, term)
            target = left if (p > 0 and s.perm[0] == 0) else right
            target[w] = _addval(f.coeff, target[w], term)
    return left, right


# --- braided cochain differential, functionally ----------------------------

def face_word(bs: BraidedSet, w: Word, i: int, kind: str) -> Word:
    """The evaluation word of the i-th left/right face at w: strand i is
    carried over the prefix (kind 'l') or the suffix (kind 'r') and
    dropped, the crossed strands transforming along the way."""
    if kind == "l":
        _, prefix = move_strand_left(bs, w, i)
        return prefix + w[i:]
    _, suffix = move_strand_right(bs, w, i)
    return w[: i - 1] + suffix


def cochain_diff_left(bs: BraidedSet, f: Cochain) -> Cochain:
    k = f.degree + 1
    out = Cochain(k, f.coeff)
    trivial = isinstance(f.coeff, CoeffRing)
    for w in product(range(bs.size), repeat=k):
        acc = out._zero
        for i in range(1, k + 1):
            mover, prefix = move_strand_left(bs, w, i)
            val = f[prefix + w[i:]]
            if not trivial:
                val = tuple(
                    sum(f.coeff.left[mover].data[t][s] * val[s] for s in range(f.coeff.rank))
                    for t in range(f.coeff.rank)
                )
            if i % 2 == 0:
                val = _neg(f.coeff, val)
            acc = _addval(f.coeff, acc, val)
        out[w] = acc
    return out


def cochain_diff_right(bs: BraidedSet, f: Cochain) -> Cochain:
    k = f.degree + 1
    out = Cochain(k, f.coeff)
    trivial = isinstance(f.coeff, CoeffRing)
    for w in product(range(bs.size), repeat=k):
        acc = out._zero
        for i in range(1, k + 1):
            mover, suffix = move_strand_right(bs, w, i)
            val = f[w[: i - 1] + suffix]
            if not trivial:
                val = tuple(
                    sum(f.coeff.right[mover].data[t][s] * val[s] for s in range(f.coeff.rank))
                    for t in range(f.coeff.rank)
                )
            if (k - i) % 2:
                val = _neg(f.coeff, val)
            acc = _addval(f.coeff, acc, val)
        out[w] = acc
    return out


def cochain_diff(bs: BraidedSet, f: Cochain) -> Cochain:
    """The braided cochain differential d : C^k -> C^{k+1}, assembled as
    d_left + (-1)^{k+1} d_right."""
    k = f.degree + 1
    dl = cochain_diff_left(bs, f)
    dr = cochain_diff_right(bs, f)
    out = Cochain(k, f.coeff)
    for w in set(dl.values) | set(dr.values):
        v = dr[w]
        if k % 2:
            v = _neg(f.coeff, v)
        out[w] = _addval(f.coeff, dl[w], v)
    return out


def is_split_symmetric(bs: BraidedSet, f: Cochain) -> bool:
    """Whether the first left and right faces of f agree - the condition
    under which the dendriform split survives in cohomology."""
    k = f.degree + 1
    trivial = isinstance(f.coeff, CoeffRing)
    for w in product(range(bs.size), repeat=k):
        mover_l, prefix = move_strand_left(bs, w, 1)
        val_l = f[prefix + w[1:]]
        mover_r, suffix = move_strand_right(bs, w, 1)
        val_r = f[suffix]
        if not trivial:
            val_l = tuple(
                sum(f.coeff.left[mover_l].data[t][s] * val_l[s] for s in range(f.coeff.rank))
                for t in range(f.coeff.rank)
            )
            val_r = tuple(
                sum(f.coeff.right[mover_r].data[t][s] * val_r[s] for s in range(f.coeff.rank))
                for t in range(f.coeff.rank)
            )
        if val_l != val_r:
            return False
    return True


# --- circle product ---------------------------------------------------------

def _require_trivial_ring(coeff):
    if not isinstance(coeff, CoeffRing):
        raise BraidedSetError("circle product requires trivial commutative coefficients")


def _pair_count(left, right) -> int:
    """Number of couples i in left, j in right with i > j."""
    return sum(1 for i in left for j in right if i > j)


def iterated_face_eval(bs: BraidedSet, f: Cochain, w: Word, faces) -> int:
    """Evaluate the composite of face maps (positions ascending, trivial
    coefficients) on w: transform w through the faces from the outermost
    (largest position) inward, then evaluate f."""
    for i, kind in reversed(faces):
        w = face_word(bs, w, i, kind)
    return f[w]


def circle_product(bs: BraidedSet, f: Cochain, g: Cochain) -> Cochain:
    """Degree p+q-1 operation: sum over positions t and decompositions of
    the remaining slots into f-faces and g-faces, with Koszul signs.

    f receives left faces above t and right faces below, g the other way
    round; the convolution of the two face-composites is evaluated
    pointwise.
    """
    _require_same_coeff(f, g)
    _require_trivial_ring(f.coeff)
    ring = f.coeff
    p, q = f.degree, g.degree
    k = p + q - 1
    if p == 0 or q == 0:
        return Cochain(max(k, 0), ring)
    plan = []
    for t in range(1, k + 1):
        before = list(range(1, t))
        after = list(range(t + 1, k + 1))
        for na in range(0, min(q - 1, len(before)) + 1):
            nb = q - 1 - na
            if nb > len(after):
                continue
            for i1 in combinations(before, na):
                j1 = [u for u in before if u not in i1]
                for i2 in combinations(after, nb):
                    j2 = [u for u in after if u not in i2]
                    sign = -1 if ((q - 1) * len(j1) + _pair_count(j1, i1) + _pair_count(i2, j2)) % 2 else 1
                    f_faces = sorted([(u, "r") for u in i1] + [(u, "l") for u in i2])
                    g_faces = sorted([(u, "l") for u in j1] + [(u, "r") for u in j2])
                    plan.append((sign, f_faces, g_faces))
    out = Cochain(k, ring)
    for w in product(range(bs.size), repeat=k):
        acc = 0
        for sign, f_faces, g_faces in plan:
            a = iterated_face_eval(bs, f, w, f_faces)
            if not a:
                continue
            b = iterated_face_eval(bs, g, w, g_faces)
            if b:
                acc += sign * a * b
        out[w] = acc
    return out


def check_homotopy_identity(
    bs: BraidedSet, f: Cochain, g: Cochain, experimental_flip: bool = False
) -> CheckReport:
    """Both sides of the commutativity-defect identity

        d(f o g) - (-1)^{q-1} (df) o g - f o (dg)
            = (-1)^q ( g cup f - (-1)^{pq} f cup g )

    evaluated on every word of degree p+q.  With experimental_flip the
    right-hand side uses the flipped product (a noncommutative-coefficients
    variant); nothing is asserted about that form beyond reporting it.
    """
    _require_same_coeff(f, g)
    _require_trivial_ring(f.coeff)
    ring = f.coeff
    p, q = f.degree, g.degree
    d_fg = cochain_diff(bs, circle_product(bs, f, g)) if p and q else Cochain(p + q, ring)
    df_g = circle_product(bs, cochain_diff(bs, f), g)
    f_dg = circle_product(bs, f, cochain_diff(bs, g))
    gf = _flipped_cup(bs, g, f) if experimental_flip else cup_product(bs, g, f)
    fg = cup_product(bs, f, g)
    sign_df = -1 if (q - 1) % 2 else 1
    sign_rhs = -1 if q % 2 else 1
    sign_pq = -1 if (p * q) % 2 else 1
    witness = None
    for w in product(range(bs.size), repeat=p + q):
        left = ring.normalize(d_fg[w] - sign_df * df_g[w] - f_dg[w])
        right = ring.normalize(sign_rhs * (gf[w] - sign_pq * fg[w]))
        if left != right and witness is None:
            witness = (w, left, right)
    if witness:
        return CheckReport(False, witness, "homotopy identity fails")
    return CheckReport(True, detail=f"degrees ({p},{q}), ring {ring}")


def _flipped_cup(bs: BraidedSet, g: Cochain, f: Cochain) -> Cochain:
    """mu o tau (g x f) on the (q,p)-shuffle coproduct: the flipped cup
    used by the noncommutative variant of the homotopy identity."""
    q, p = g.degree, f.degree
    out = Cochain(p + q, f.coeff)
    for w in product(range(bs.size), repeat=p + q):
        acc = 0
        for s in shuffle_set(q, p):
            u = apply_braid_word(bs, w, s.inverse_word)
            term = f[u[q:]] * g[u[:q]]
            acc += -term if s.length % 2 else term
        out[w] = acc
    return out


def hirsch_sides(bs: BraidedSet, f: Cochain, g: Cochain, h: Cochain):
    """Both sides of (f cup g) o h  =  f cup (g o h) + (-1)^{|g|(|h|-1)} (f o h) cup g."""
    sign = -1 if (g.degree * (h.degree - 1)) % 2 else 1
    lhs = circle_product(bs, cup_product(bs, f, g), h)
    a = cup_product(bs, f, circle_product(bs, g, h))
    b = cup_product(bs, circle_product(bs, f, h), g)
    ring = f.coeff
    rhs = Cochain(lhs.degree, ring)
    for w in set(a.values) | set(b.values):
        rhs[w] = ring.normalize(a[w] + sign * b[w])
    return lhs, rhs


def check_hirsch_failure(bs: BraidedSet, ring: CoeffRing, span: int = 1, samples: int = 20, seed: int = 20240901) -> CheckReport:
    """Search degree-1 triples violating the Hirsch formula, and verify the
    formula for every enumerated 1-cocycle h against sampled f, g.

    holds=True means a violating triple was found (the formula does fail
    on this braiding); the report also carries `cocycle_ok` and, when a
    cocycle h broke the formula, `cocycle_witness`.
    """
    import random

    n = bs.size
    values = range(-span, span + 1)
    violation = None
    for fv in product(values, repeat=n):
        f = Cochain(1, ring, {(x,): fv[x] for x in range(n)})
        for gv in product(values, repeat=n):
            g = Cochain(1, ring, {(x,): gv[x] for x in range(n)})
            for hv in product(values, repeat=n):
                h = Cochain(1, ring, {(x,): hv[x] for x in range(n)})
                lhs, rhs = hirsch_sides(bs, f, g, h)
                if lhs != rhs:
                    violation = (fv, gv, hv)
                    break
            if violation:
                break
        if violation:
            break
    rng = random.Random(seed)
    cocycle_ok = True
    cocycle_witness = None
    cocycles = []
    for hv in product(values, repeat=n):
        h = Cochain(1, ring, {(x,): hv[x] for x in range(n)})
        if not cochain_diff(bs, h).values:
            cocycles.append((hv, h))
    for hv, h in cocycles:
        for _ in range(samples):
            f = seeded_cochain(bs, 1, ring, rng)
            g = seeded_cochain(bs, 1, ring, rng)
            lhs, rhs = hirsch_sides(bs, f, g, h)
            if lhs != rhs:
                cocycle_ok = False
                cocycle_witness = (f.values, g.values, hv)
                break
        if not cocycle_ok:
            break
    report = CheckReport(
        violation is not None,
        violation,
        "violating degree-1 triple found" if violation else "no violation in search range",
    )
    report.cocycle_ok = cocycle_ok
    report.cocycle_witness = cocycle_witness
    report.cocycle_count = len(cocycles)
    return report


def pre_lie_sides(bs: BraidedSet, f: Cochain, g: Cochain, h: Cochain):
    """Both sides of the pre-Lie condition for the circle product."""
    ring = f.coeff
    lhs_a = circle_product(bs, circle_product(bs, f, g), h)
    lhs_b = circle_product(bs, f, circle_product(bs, g, h))
    rhs_a = circle_product(bs, circle_product(bs, f, h), g)
    rhs_b = circle_product(bs, f, circle_product(bs, h, g))
    sign = -1 if ((g.degree - 1) * (h.degree - 1)) % 2 else 1
    deg = lhs_a.degree
    lhs = Cochain(deg, ring)
    rhs = Cochain(deg, ring)
    for w in set(lhs_a.values) | set(lhs_b.values):
        lhs[w] = ring.normalize(lhs_a[w] - lhs_b[w])
    for w in set(rhs_a.values) | set(rhs_b.values):
        rhs[w] = ring.normalize(sign * (rhs_a[w] - rhs_b[w]))
    return lhs, rhs
