"""Normalized bar (Hochschild) complexes of finite monoids, the reduced
structure monoid of a pseudo-unital idempotent braided set, and the
comparison harness showing that the quantum symmetrizer identifies
critical braided homology with Hochschild homology.

The bar side is assembled directly from the multiplication table and
serves as the independent oracle for every comparison; it never reuses
the braided differentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .braided import (
    BoundExceeded,
    BraidedSet,
    BraidedSetError,
    CheckReport,
    Word,
    adjoin_unit,
    normal_product,
    reduced_normal_product,
    word_braiding,
)
from .bimodules import Bimodule, verify_bimodule
from .catalog import Factorization
from .complexes import chain_diff_terms, critical_basis, critical_complex
from .monoid import FiniteMonoid
from .products import Cochain, _add, quantum_symmetrizer, reduced_quantum_symmetrizer
from .zlinalg import (
    AbelianGroupInvariants,
    ChainComplex,
    ChainMap,
    IntMatrix,
    induced_map_on_homology,
    verify_chain_map,
)


# --- reduced structure monoid -----------------------------------------------

@dataclass
class ReducedMonoid:
    monoid: FiniteMonoid
    words: list[Word]  # normal-form representative per element, unit first
    index: dict

    def letter(self, x: int) -> int:
        """Element index of the one-letter word (x)."""
        return self.index[(x,)]


def enumerate_reduced_monoid(bs: BraidedSet, e: int, bound: int = 256) -> ReducedMonoid:
    """Close the pseudo-unit-free normal words under the reduced product,
    breadth first from the single letters.  Fails once more than `bound`
    elements appear (free and symmetric monoids, for instance, never
    stabilize)."""
    if e is None:
        raise BraidedSetError("reduced structure monoid needs a pseudo-unit")
    gens = [(x,) for x in range(bs.size) if x != e]
    elements: list[Word] = [()]
    index = {(): 0}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                prod_w = reduced_normal_product(bs, e, w, g)
                if prod_w not in index:
                    if len(elements) >= bound:
                        raise BoundExceeded(
                            f"reduced structure monoid not finite within bound {bound}"
                        )
                    index[prod_w] = len(elements)
                    elements.append(prod_w)
                    nxt.append(prod_w)
        frontier = nxt
    order = sorted(range(len(elements)), key=lambda i: (len(elements[i]), elements[i]))
    words = [elements[i] for i in order]
    index = {w: i for i, w in enumerate(words)}
    table = [
        [index[reduced_normal_product(bs, e, v, w)] for w in words] for v in words
    ]
    monoid = FiniteMonoid(table, unit=index[()], names=[str(w) for w in words])
    return ReducedMonoid(monoid, words, index)


def transport_bimodule(bs: BraidedSet, M: Bimodule, red: ReducedMonoid) -> Bimodule:
    """Reindex a braided-set bimodule by the reduced monoid: an element
    acts by composing the letter actions along its normal form."""
    left = []
    right = []
    for w in red.words:
        # w.m = w1.(w2.(...)): the first letter acts last
        lm = IntMatrix.identity(M.rank)
        for x in w:
            lm = lm * M.left[x]
        rm = IntMatrix.identity(M.rank)
        for x in reversed(w):
            rm = rm * M.right[x]
        left.append(lm)
        right.append(rm)
    return Bimodule(len(red.words), M.rank, left=left, right=right, labels=M.labels)


# --- normalized bar complex --------------------------------------------------

def bar_basis(G: FiniteMonoid, k: int) -> list[tuple[int, ...]]:
    nonunit = [g for g in range(G.size) if g != G.unit]
    return list(product(nonunit, repeat=k))


def bar_diff_terms(G: FiniteMonoid, M: Bimodule, t: tuple[int, ...], mi: int) -> dict:
    """Normalized Hochschild boundary of m_i (x) t; products landing on the
    unit are dropped."""
    out: dict = {}
    k = len(t)
    for mj, c in M.right_col(t[0], mi):
        _add(out, (t[1:], mj), c)
    for i in range(1, k):
        g = G.mul(t[i - 1], t[i])
        if g != G.unit:
            sign = -1 if i % 2 else 1
            _add(out, ((t[: i - 1] + (g,) + t[i + 1 :]), mi), sign)
    sign = -1 if k % 2 else 1
    for mj, c in M.left_col(t[-1], mi):
        _add(out, ((t[:-1]), mj), sign * c)
    return out


def normalized_bar_complex(G: FiniteMonoid, M: Bimodule, K: int) -> ChainComplex:
    """Degrees <= K of the normalized bar complex of G with coefficients in
    the G-indexed bimodule M."""
    if M.n_letters != G.size:
        raise BraidedSetError("bimodule actions must be indexed by the monoid")
    bases = [[(t, mi) for t in bar_basis(G, k) for mi in range(M.rank)] for k in range(K + 1)]
    indexes = [{b: i for i, b in enumerate(basis)} for basis in bases]
    diffs = {}
    for k in range(1, K + 1):
        mat = IntMatrix(len(bases[k - 1]), len(bases[k]))
        for col, (t, mi) in enumerate(bases[k]):
            for key, c in bar_diff_terms(G, M, t, mi).items():
                mat.data[indexes[k - 1][key]][col] += c
        diffs[k] = mat
    labels = [[f"{t}" + (f"*{M.labels[mi]}" if M.rank > 1 else "") for t, mi in basis] for basis in bases]
    return ChainComplex([len(b) for b in bases], diffs, labels=labels, name=f"bar complex, |G|={G.size}")


def trivial_monoid_bimodule(G: FiniteMonoid, rank: int = 1) -> Bimodule:
    ident = [IntMatrix.identity(rank) for _ in range(G.size)]
    return Bimodule(G.size, rank, left=list(ident), right=list(ident), name="trivial")


# --- quantum symmetrizer as a chain map --------------------------------------

def qs_chain_map(
    bs: BraidedSet, M: Bimodule, K: int, e: int, red: ReducedMonoid | None = None
) -> ChainMap:
    """The reduced quantum symmetrizer from the critical complex of
    (X, sigma, e) to the normalized bar complex of the reduced structure
    monoid, as explicit matrices."""
    if red is None:
        red = enumerate_reduced_monoid(bs, e)
    crit = critical_complex(bs, M, K, pseudo_unit=e)
    bar_M = transport_bimodule(bs, M, red)
    bar = normalized_bar_complex(red.monoid, bar_M, K)
    components = {}
    for k in range(K + 1):
        src_words = critical_basis(bs, k, e)
        tgt_basis = [(t, mi) for t in bar_basis(red.monoid, k) for mi in range(M.rank)]
        tgt_index = {b: i for i, b in enumerate(tgt_basis)}
        mat = IntMatrix(len(tgt_basis), len(src_words) * M.rank)
        for wi, w in enumerate(src_words):
            for t, c in reduced_quantum_symmetrizer(bs, e, w).items():
                tup = tuple(red.letter(x) for x in t)
                for mi in range(M.rank):
                    mat.data[tgt_index[(tup, mi)]][wi * M.rank + mi] += c
        components[k] = mat
    return ChainMap(crit, bar, components, name="reduced quantum symmetrizer")


def qs_chain_map_check(
    bs: BraidedSet, M: Bimodule, K: int, e: int | None = None
) -> CheckReport:
    """Chain-map and vanishing checks for the (reduced) quantum symmetrizer.

    With a pseudo-unit: matrix check against the normalized bar complex of
    the reduced monoid, plus vanishing on every non-critical word of
    degree <= K.  Without: a symbolic check against the bar differential
    of the structure monoid, elements represented by normal forms.
    """
    if e is not None:
        f = qs_chain_map(bs, M, K, e)
        rep = verify_chain_map(f)
        if not rep.holds:
            return rep
        for k in range(1, K + 1):
            for w in product(range(bs.size), repeat=k):
                from .complexes import is_critical_word

                if is_critical_word(bs, w, e):
                    continue
                if reduced_quantum_symmetrizer(bs, e, w):
                    return CheckReport(False, w, "symmetrizer does not vanish on a non-critical word")
        return CheckReport(True, detail="reduced symmetrizer is a chain map")
    # unreduced symbolic check (structure monoid may be infinite)
    if not bs.is_idempotent():
        raise BraidedSetError("symbolic chain-map check requires an idempotent braiding")
    rep = verify_bimodule(bs, M)
    if not rep.holds:
        raise BraidedSetError(f"invalid bimodule: {rep.detail}")
    for k in range(1, K + 1):
        for w in product(range(bs.size), repeat=k):
            for mi in range(M.rank):
                lhs: dict = {}
                for key, c in chain_diff_terms(bs, M, w, mi).items():
                    v, mj = key
                    for t, c2 in quantum_symmetrizer(bs, v).items():
                        _add(lhs, (tuple((x,) for x in t), mj), c * c2)
                rhs: dict = {}
                for t, c in quantum_symmetrizer(bs, w).items():
                    tup = tuple((x,) for x in t)
                    for key, c2 in _monoid_bar_terms(bs, M, tup, mi).items():
                        _add(rhs, key, c * c2)
                if lhs != rhs:
                    return CheckReport(False, (w, mi), f"chain map fails at degree {k}")
            if not _is_critical(bs, w) and quantum_symmetrizer(bs, w):
                return CheckReport(False, w, "symmetrizer does not vanish on a non-critical word")
    return CheckReport(True, detail="symmetrizer is a chain map (symbolic)")


def _is_critical(bs, w):
    from .complexes import is_critical_word

    return is_critical_word(bs, w)


def _word_action_cols(bs, M, w: Word, mi: int, side: str):
    """Sparse expansion of the action of a normal word on a basis vector."""
    vec = {mi: 1}
    seq = w if side == "right" else tuple(reversed(w))
    for x in seq:
        nxt: dict = {}
        for j, c in vec.items():
            cols = M.right_col(x, j) if side == "right" else M.left_col(x, j)
            for t, c2 in cols:
                _add(nxt, t, c * c2)
        vec = nxt
    return vec


def _monoid_bar_terms(bs: BraidedSet, M: Bimodule, tup, mi: int) -> dict:
    """Unnormalized bar boundary for tuples of structure-monoid elements
    given by their normal forms."""
    out: dict = {}
    k = len(tup)
    for mj, c in _word_action_cols(bs, M, tup[0], mi, "right").items():
        _add(out, (tup[1:], mj), c)
    for i in range(1, k):
        g = normal_product(bs, tup[i - 1], tup[i])
        sign = -1 if i % 2 else 1
        _add(out, (tup[: i - 1] + (g,) + tup[i + 1 :], mi), sign)
    sign = -1 if k % 2 else 1
    for mj, c in _word_action_cols(bs, M, tup[-1], mi, "left").items():
        _add(out, (tup[:-1], mj), sign * c)
    return out


# --- homology comparison ------------------------------------------------------

@dataclass
class DegreeComparison:
    degree: int
    critical: AbelianGroupInvariants
    bar: AbelianGroupInvariants
    groups_equal: bool
    map_isomorphism: bool


@dataclass
class ComparisonReport:
    degrees: list[DegreeComparison]
    monoid_size: int

    @property
    def ok(self) -> bool:
        return all(d.groups_equal and d.map_isomorphism for d in self.degrees)

    def to_dict(self) -> dict:
        return {
            "monoid_size": self.monoid_size,
            "ok": self.ok,
            "degrees": [
                {
                    "degree": d.degree,
                    "critical": d.critical.to_dict(),
                    "bar": d.bar.to_dict(),
                    "groups_equal": d.groups_equal,
                    "map_isomorphism": d.map_isomorphism,
                }
                for d in self.degrees
            ],
        }


def compare_homology(
    bs: BraidedSet, M: Bimodule, K: int, e: int | None = None, bound: int = 256
) -> ComparisonReport:
    """Critical braided homology vs. normalized bar homology of the reduced
    structure monoid, for degrees k < K, with induced-map verdicts.

    Braidings without a pseudo-unit get a formal one adjoined, which
    leaves the critical complex unchanged and makes the reduced monoid
    the structure monoid itself.
    """
    if e is None:
        if bs.pseudo_unit is not None:
            e = bs.pseudo_unit
        else:
            n = bs.size
            bs = adjoin_unit(bs)
            e = bs.pseudo_unit
            if M.n_letters == n:
                ident = IntMatrix.identity(M.rank)
                M = Bimodule(
                    n + 1,
                    M.rank,
                    left=list(M.left) + [ident],
                    right=list(M.right) + [ident],
                    labels=M.labels,
                )
    red = enumerate_reduced_monoid(bs, e, bound=bound)
    f = qs_chain_map(bs, M, K, e, red=red)
    rep = verify_chain_map(f)
    if not rep.holds:
        raise BraidedSetError(f"quantum symmetrizer is not a chain map: {rep.witness}")
    out = []
    for k in range(K):
        induced = induced_map_on_homology(f, k)
        out.append(
            DegreeComparison(
                k,
                induced.source_group,
                induced.target_group,
                induced.source_group == induced.target_group,
                induced.isomorphism,
            )
        )
    return ComparisonReport(out, red.monoid.size)


# --- factorizable monoids: the double complex ---------------------------------

@dataclass
class DoubleComplex:
    """Bigraded modules with vertical (K-side) and horizontal (H-side)
    differentials; blocks[(p, q)] lists the (k-tuple, h-tuple) basis."""

    fact: Factorization
    blocks: dict
    dv: dict
    dh: dict
    rank: int  # coefficient rank

    def verify(self) -> CheckReport:
        for (p, q), _ in self.blocks.items():
            if p >= 2:
                prod = self.dv[(p - 1, q)] * self.dv[(p, q)]
                if not prod.is_zero():
                    return CheckReport(False, (p, q), "vertical d^2 != 0")
            if q >= 2:
                prod = self.dh[(p, q - 1)] * self.dh[(p, q)]
                if not prod.is_zero():
                    return CheckReport(False, (p, q), "horizontal d^2 != 0")
            if p >= 1 and q >= 1:
                a = self.dv[(p, q - 1)] * self.dh[(p, q)]
                b = self.dh[(p - 1, q)] * self.dv[(p, q)]
                if a != b:
                    return CheckReport(False, (p, q), "squares do not commute")
        return CheckReport(True)


def _block_basis(fact: Factorization, p: int, q: int):
    bs = fact.braiding
    e = bs.pseudo_unit
    kbar = [x for x in range(bs.size) if x != e and fact.elements[x] in fact.K]
    hbar = [x for x in range(bs.size) if x != e and fact.elements[x] in fact.H]
    return [kt + ht for kt in product(kbar, repeat=p) for ht in product(hbar, repeat=q)]


def _kh_split(fact: Factorization, w: Word) -> tuple[int, int]:
    """Bidegree of a critical word: K-letters then H-letters."""
    in_h = {x for x in range(fact.braiding.size) if fact.elements[x] in fact.H}
    p = 0
    while p < len(w) and w[p] not in in_h:
        p += 1
    return p, len(w) - p


def factorizable_double_complex(fact: Factorization, M: Bimodule, Kmax: int):
    """The double complex of an exact factorization G = HK with
    coefficients in a G-indexed bimodule M, plus its totalization on the
    lexicographic critical basis (matrix-identical to the critical
    complex of the factorization braiding).

    M's actions are indexed by the letters of the braiding X = H u K.
    """
    bs = fact.braiding
    e = bs.pseudo_unit
    G = fact.monoid
    pos = {g: i for i, g in enumerate(fact.elements)}

    def gmul(x: int, y: int) -> int:
        return pos[G.mul(fact.elements[x], fact.elements[y])]

    blocks = {}
    indexes = {}
    for p in range(Kmax + 1):
        for q in range(Kmax + 1 - p):
            basis = _block_basis(fact, p, q)
            blocks[(p, q)] = basis
            indexes[(p, q)] = {w: i for i, w in enumerate(basis)}
    r = M.rank
    dv = {}
    dh = {}
    sig = bs.sigma
    for (p, q), basis in blocks.items():
        if p >= 1:
            src = basis
            tgt_index = indexes[(p - 1, q)]
            mat = IntMatrix(len(blocks[(p - 1, q)]) * r, len(src) * r)
            for col, w in enumerate(src):
                ks, hs = w[:p], w[p:]
                terms: dict = {}
                for mi in range(r):
                    for mj, c in M.right_col(ks[0], mi):
                        _add(terms, ((ks[1:] + hs), mi, mj), c)
                for i in range(1, p):
                    g = gmul(ks[i - 1], ks[i])
                    if g != e:
                        sign = -1 if i % 2 else 1
                        for mi in range(r):
                            _add(terms, ((ks[: i - 1] + (g,) + ks[i + 1 :] + hs), mi, mi), sign)
                seg = list((ks[-1],) + hs)
                for j in range(1, len(seg)):
                    a, b = seg[j - 1], seg[j]
                    seg[j - 1], seg[j] = sig[a][b]
                kp, hs2 = seg[-1], tuple(seg[:-1])
                # kp = 1 acts trivially; only a 1 in the word kills the term
                if e not in hs2:
                    sign = -1 if p % 2 else 1
                    for mi in range(r):
                        for mj, c in M.left_col(kp, mi):
                            _add(terms, ((ks[:-1] + hs2), mi, mj), sign * c)
                for (word, mi, mj), c in terms.items():
                    row = tgt_index.get(word)
                    if row is not None:
                        mat.data[row * r + mj][col * r + mi] += c
            dv[(p, q)] = mat
        if q >= 1:
            tgt_index = indexes[(p, q - 1)]
            mat = IntMatrix(len(blocks[(p, q - 1)]) * r, len(basis) * r)
            for col, w in enumerate(basis):
                ks, hs = w[:p], w[p:]
                terms = {}
                seg = list(ks + (hs[0],))
                for j in range(len(seg) - 1, 0, -1):
                    a, b = seg[j - 1], seg[j]
                    seg[j - 1], seg[j] = sig[a][b]
                h1, ks2 = seg[0], tuple(seg[1:])
                if e not in ks2:
                    for mi in range(r):
                        for mj, c in M.right_col(h1, mi):
                            _add(terms, ((ks2 + hs[1:]), mi, mj), c)
                for i in range(1, q):
                    g = gmul(hs[i - 1], hs[i])
                    if g != e:
                        sign = -1 if i % 2 else 1
                        for mi in range(r):
                            _add(terms, ((ks + hs[: i - 1] + (g,) + hs[i + 1 :]), mi, mi), sign)
                sign = -1 if q % 2 else 1
                for mi in range(r):
                    for mj, c in M.left_col(hs[-1], mi):
                        _add(terms, ((ks + hs[:-1]), mi, mj), sign * c)
                for (word, mi, mj), c in terms.items():
                    row = tgt_index.get(word)
                    if row is not None:
                        mat.data[row * r + mj][col * r + mi] += c
            dh[(p, q)] = mat
    dc = DoubleComplex(fact, blocks, dv, dh, r)
    total = totalize(dc, Kmax)
    return dc, total


def totalize(dc: DoubleComplex, Kmax: int) -> ChainComplex:
    """Total complex with differential d_v + (-1)^p d_h, on the critical
    basis in lexicographic word order."""
    fact = dc.fact
    bs = fact.braiding
    r = dc.rank
    bases = [critical_basis(bs, k, bs.pseudo_unit) for k in range(Kmax + 1)]
    # the critical words of a factorization braiding are exactly the block
    # words K^p H^q, so every block entry has a place in the total basis
    positions = [{w: i for i, w in enumerate(basis)} for basis in bases]
    diffs = {k: IntMatrix(len(bases[k - 1]) * r, len(bases[k]) * r) for k in range(1, Kmax + 1)}

    def coords(p, q):
        pos = positions[p + q]
        return [pos[w] * r + m for w in dc.blocks[(p, q)] for m in range(r)]

    def place(sub, src, tgt, sign):
        if sum(src) > Kmax:
            return
        data = diffs[sum(src)].data
        cols = coords(*src)
        for i, sub_row in zip(coords(*tgt), sub.data):
            row = data[i]
            for j, v in zip(cols, sub_row):
                if v:
                    row[j] += sign * v

    for (p, q), sub in dc.dv.items():
        place(sub, (p, q), (p - 1, q), 1)
    for (p, q), sub in dc.dh.items():
        place(sub, (p, q), (p, q - 1), -1 if p % 2 else 1)
    return ChainComplex(
        [len(b) * r for b in bases],
        diffs,
        name=f"double-complex totalization, |G|={fact.monoid.size}",
    )


def factorizable_cup(fact: Factorization, f: Cochain, g: Cochain) -> Cochain:
    """Closed-form cup product of critical cochains of a factorization
    braiding: the shuffle sum collapses to one block split per r, with
    sign (-1)^{(p-r)(s-r)} and a single block transposition braid."""
    from .products import _mul, _neg, _addval, _require_same_coeff

    _require_same_coeff(f, g)
    bs = fact.braiding
    s, t = f.degree, g.degree
    out = Cochain(s + t, f.coeff)
    for w in critical_basis(bs, s + t, bs.pseudo_unit):
        p, q = _kh_split(fact, w)
        ks, hs = w[:p], w[p:]
        acc = out._zero
        for r in range(max(0, s - q), min(p, s) + 1):
            # move the first s-r H-letters across the last p-r K-letters
            hprime, kprime = word_braiding(bs, ks[r:], hs[: s - r])
            left = f[ks[:r] + hprime]
            right = g[kprime + hs[s - r :]]
            term = _mul(f.coeff, left, right)
            if ((p - r) * (s - r)) % 2:
                term = _neg(f.coeff, term)
            acc = _addval(f.coeff, acc, term)
        out[w] = acc
    return out
