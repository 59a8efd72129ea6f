"""Braided chain and cochain complexes with bimodule coefficients, and
their critical quotients.

The degree-k chain module is M (x) ZX^k (or M (x) ZX^k (x) N for a
right/left module pair); the differential alternates left and right
strand removals: the i-th strand is carried over all strands on one side,
transforming them through the braiding, and then acts on the coefficient.
Basis order is lexicographic on (word, coefficient index) everywhere, so
exported matrices are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .braided import (
    BraidedSet,
    BraidedSetError,
    CheckReport,
    Word,
    act_left,
    act_right,
    move_strand_left,
    move_strand_right,
)
from .bimodules import Bimodule, verify_bimodule
from .products import _add, shuffle_coproduct
from .zlinalg import ChainComplex, IntMatrix, smith_normal_form


def _word_label(w: Word) -> str:
    return "(" + ",".join(map(str, w)) + ")"


def _basis_labels(words, M) -> list[str]:
    if M.rank == 1:
        return [_word_label(w) for w in words]
    return [f"{_word_label(w)}*{M.labels[mi]}" for w in words for mi in range(M.rank)]


# --- differentials on basis elements ---------------------------------------

def chain_diff_terms(bs: BraidedSet, M: Bimodule, w: Word, mi: int) -> dict:
    """d(m_i (x) w) as a combination of (word, coefficient-index) keys."""
    out: dict = {}
    for i in range(1, len(w) + 1):
        sign = 1 if i % 2 else -1
        mover, prefix = move_strand_left(bs, w, i)
        word_l = prefix + w[i:]
        for mj, c in M.right_col(mover, mi):
            _add(out, (word_l, mj), sign * c)
        mover_r, suffix = move_strand_right(bs, w, i)
        word_r = w[: i - 1] + suffix
        for mj, c in M.left_col(mover_r, mi):
            _add(out, (word_r, mj), -sign * c)
    return out


def two_sided_diff_terms(
    bs: BraidedSet, M: Bimodule, N: Bimodule, w: Word, mi: int, ni: int
) -> dict:
    """d(m_i (x) w (x) n_j) for a right module M and a left module N."""
    out: dict = {}
    for i in range(1, len(w) + 1):
        sign = 1 if i % 2 else -1
        mover, prefix = move_strand_left(bs, w, i)
        word_l = prefix + w[i:]
        for mj, c in M.right_col(mover, mi):
            _add(out, (word_l, mj, ni), sign * c)
        mover_r, suffix = move_strand_right(bs, w, i)
        word_r = w[: i - 1] + suffix
        for nj, c in N.left_col(mover_r, ni):
            _add(out, (word_r, mi, nj), -sign * c)
    return out


def _assemble(columns, terms_fn, tgt_index, rows: int) -> IntMatrix:
    entries = []
    for col, key in enumerate(columns):
        for tkey, c in terms_fn(key).items():
            row = tgt_index.get(tkey)
            if row is not None:
                entries.append((row, col, c))
    return IntMatrix.from_columns(rows, len(columns), entries)


def _require_bimodule(bs, M):
    if not (M.has_left and M.has_right):
        raise BraidedSetError("need a two-sided (bi)module")
    rep = verify_bimodule(bs, M, unit_law=False)
    if not rep.holds:
        raise BraidedSetError(f"invalid bimodule: {rep.detail} at {rep.witness}")


def _boundaries(words, coeff_keys, *terms_fns):
    """The assembly shared by every complex here: the ranks of the bases
    (word, *key), word in words[k] and key in coeff_keys, and per terms
    function a dict of boundary matrices d_k : degree k -> k-1.  Terms off
    the target basis are dropped, which realizes the critical quotients."""
    bases = [[(w, *c) for w in ws for c in coeff_keys] for ws in words]
    indexes = [{b: i for i, b in enumerate(basis)} for basis in bases]
    families = [
        {
            k: _assemble(bases[k], terms_fn, indexes[k - 1], len(bases[k - 1]))
            for k in range(1, len(words))
        }
        for terms_fn in terms_fns
    ]
    return [len(b) for b in bases], families


def _dual(M: Bimodule) -> Bimodule:
    """Hom(M, Z) in the dual basis: the left action is the transposed right
    action of M and the right action the transposed left action."""
    return Bimodule(
        M.n_letters,
        M.rank,
        left=[m.transpose() for m in M.right],
        right=[m.transpose() for m in M.left],
        labels=M.labels,
    )


def _complex_on(bs: BraidedSet, M: Bimodule, words, name: str, cochain: bool) -> ChainComplex:
    """Chains of M on the given word bases; the cochains are the transpose
    of the chains of the dual bimodule, stored with ascending orientation
    (diffs[k] maps degree k-1 to degree k)."""
    A = _dual(M) if cochain else M
    ranks, (diffs,) = _boundaries(
        words, [(mi,) for mi in range(M.rank)], lambda key: chain_diff_terms(bs, A, *key)
    )
    if cochain:
        diffs = {k: m.transpose() for k, m in diffs.items()}
    return ChainComplex(
        ranks,
        diffs,
        labels=[_basis_labels(ws, M) for ws in words],
        ascending=cochain,
        name=name,
    )


def _all_words(bs: BraidedSet, K: int):
    return [list(product(range(bs.size), repeat=k)) for k in range(K + 1)]


def braided_chain_complex(bs: BraidedSet, M: Bimodule, K: int) -> ChainComplex:
    """The degree <= K part of the braided chain complex of (X, sigma)
    with coefficients in the bimodule M."""
    _require_bimodule(bs, M)
    return _complex_on(bs, M, _all_words(bs, K), f"braided chains of {bs.name}", False)


def braided_two_sided_complex(
    bs: BraidedSet, M: Bimodule, N: Bimodule, K: int
) -> ChainComplex:
    """Two-sided braided chains M (x) ZX^k (x) N for a right module M and
    a left module N."""
    if not M.has_right or not N.has_left:
        raise BraidedSetError("M must be a right module and N a left module")
    for side, mod in (("right", M), ("left", N)):
        rep = verify_bimodule(bs, mod, unit_law=False)
        if not rep.holds:
            raise BraidedSetError(f"invalid {side} module: {rep.detail} at {rep.witness}")
    ranks, (diffs,) = _boundaries(
        _all_words(bs, K),
        list(product(range(M.rank), range(N.rank))),
        lambda key: two_sided_diff_terms(bs, M, N, *key),
    )
    return ChainComplex(ranks, diffs, name=f"two-sided braided chains of {bs.name}")


def braided_cochain_complex(bs: BraidedSet, M: Bimodule, K: int) -> ChainComplex:
    """Maps X^k -> M with the braided cochain differential; stored with
    ascending orientation (diffs[k] maps degree k-1 to degree k)."""
    _require_bimodule(bs, M)
    return _complex_on(bs, M, _all_words(bs, K), f"braided cochains of {bs.name}", True)


def split_differentials(bs: BraidedSet, M: Bimodule, K: int):
    """The left/right families of the braided differential, assembled from
    the shuffle coproduct, plus a report comparing d_left + (-1)^k d_right
    with the alternating-sum assembly degree by degree."""
    _require_bimodule(bs, M)

    def left_terms(key):
        w, mi = key
        out: dict = {}
        for (head, rest), coeff in shuffle_coproduct(bs, w, 1, len(w) - 1).items():
            for mj, c in M.right_col(head[0], mi):
                _add(out, (rest, mj), coeff * c)
        return out

    def right_terms(key):
        w, mi = key
        out: dict = {}
        for (rest, tail), coeff in shuffle_coproduct(bs, w, len(w) - 1, 1).items():
            for mj, c in M.left_col(tail[0], mi):
                _add(out, (rest, mj), coeff * c)
        return out

    _, (full, left, right) = _boundaries(
        _all_words(bs, K),
        [(mi,) for mi in range(M.rank)],
        lambda key: chain_diff_terms(bs, M, *key),
        left_terms,
        right_terms,
    )
    witness = None
    for k in range(1, K + 1):
        sign = 1 if k % 2 == 0 else -1
        recombined = [
            [l + sign * r for l, r in zip(lrow, rrow)]
            for lrow, rrow in zip(left[k].data, right[k].data)
        ]
        if recombined != full[k].data:
            witness = k
            break
    report = CheckReport(
        witness is None,
        witness,
        "split and alternating-sum differentials agree" if witness is None else "families disagree",
    )
    return left, right, report


# --- critical complexes -----------------------------------------------------

def is_critical_word(bs: BraidedSet, w: Word, pseudo_unit: int | None = None) -> bool:
    if pseudo_unit is not None and pseudo_unit in w:
        return False
    sig = bs.sigma
    return all(sig[w[j]][w[j + 1]] != (w[j], w[j + 1]) for j in range(len(w) - 1))


def critical_basis(bs: BraidedSet, k: int, pseudo_unit: int | None = None) -> list[Word]:
    """Length-k words with no sigma-fixed adjacent pair (and avoiding the
    pseudo-unit letter, when one is given), in lexicographic order."""
    sig = bs.sigma
    letters = [x for x in range(bs.size) if x != pseudo_unit]
    out = [()]
    for _ in range(k):
        out = [
            w + (x,)
            for w in out
            for x in letters
            if not w or sig[w[-1]][x] != (w[-1], x)
        ]
    return out


def critical_complex(
    bs: BraidedSet,
    M: Bimodule,
    K: int,
    pseudo_unit: int | None = None,
    cochain: bool = False,
) -> ChainComplex:
    """The quotient of the braided chain complex by the span of words with
    a fixed adjacent pair (and of words containing the pseudo-unit, in
    the pseudo-unital variant), realized on the critical-word basis.

    The cochain variant is the subcomplex of maps supported on critical
    words, with ascending orientation.
    """
    if pseudo_unit is not None:
        if not bs.is_idempotent():
            raise BraidedSetError("pseudo-unital critical complex requires an idempotent braiding")
        from .bimodules import check_unit_law

        rep = check_unit_law(bs, M)
        if not rep.holds:
            raise BraidedSetError(rep.detail)
    _require_bimodule(bs, M)
    words = [critical_basis(bs, k, pseudo_unit) for k in range(K + 1)]
    kind = "cochains" if cochain else "chains"
    return _complex_on(bs, M, words, f"critical {kind} of {bs.name}", cochain)


# --- general invariant subgroups R and their quotients ----------------------

@dataclass
class RSubgroup:
    """A subgroup of Z X^2 given by integer combinations of ordered pairs."""

    generators: list[dict]


def fixed_pairs_subgroup(bs: BraidedSet) -> RSubgroup:
    gens = [
        {(x, y): 1}
        for x, y in product(range(bs.size), repeat=2)
        if bs.sigma[x][y] == (x, y)
    ]
    return RSubgroup(gens)


def symmetrizer_pairs_subgroup(bs: BraidedSet) -> RSubgroup:
    """Generated by (x,y) + sigma(x,y); condition A below amounts to the
    involutivity of sigma."""
    gens = []
    for x, y in product(range(bs.size), repeat=2):
        g: dict = {}
        _add(g, (x, y), 1)
        _add(g, bs.sigma[x][y], 1)
        gens.append(g)
    return RSubgroup(gens)


def _pair_comb_map(bs, comb, fn):
    out: dict = {}
    for (x, y), c in comb.items():
        _add(out, fn(x, y), c)
    return out


class _LatticeMembership:
    """Integer-lattice membership via the Smith form of the generator
    matrix."""

    def __init__(self, vectors, dim):
        cols = len(vectors)
        g = IntMatrix(dim, cols)
        for j, vec in enumerate(vectors):
            for i, c in vec.items():
                g.data[i][j] = c
        self.snf = smith_normal_form(g)
        self.dim = dim

    def contains(self, vec: dict) -> bool:
        u = self.snf.U
        s = self.snf.S
        r = len(self.snf.factors)
        for i in range(self.dim):
            acc = sum(u.data[i][t] * c for t, c in vec.items())
            if i < r:
                if acc % s.data[i][i]:
                    return False
            elif acc:
                return False
        return True


def _pair_index(bs, pair) -> int:
    return pair[0] * bs.size + pair[1]


def check_R_conditions(bs: BraidedSet, R: RSubgroup):
    """Conditions for R to cut out a subcomplex: A, sigma fixes R; B, R is
    closed under the adjoint letter actions; C, within each generator all
    support words act alike on every letter."""
    n = bs.size
    a_rep = CheckReport(True)
    for gi, g in enumerate(R.generators):
        image = _pair_comb_map(bs, g, lambda x, y: bs.sigma[x][y])
        if image != g:
            a_rep = CheckReport(False, gi, "sigma does not fix this generator")
            break
    member = _LatticeMembership(
        [{_pair_index(bs, p): c for p, c in g.items()} for g in R.generators], n * n
    )
    b_rep = CheckReport(True)
    for gi, g in enumerate(R.generators):
        for z in range(n):
            right = _pair_comb_map(bs, g, lambda x, y: tuple(act_right(bs, (x, y), z)))
            left = _pair_comb_map(bs, g, lambda x, y: tuple(act_left(bs, z, (x, y))))
            for name, image in (("right", right), ("left", left)):
                vec = {_pair_index(bs, p): c for p, c in image.items()}
                if not member.contains(vec):
                    b_rep = CheckReport(False, (gi, z), f"{name} action leaves the subgroup")
                    break
            if not b_rep.holds:
                break
        if not b_rep.holds:
            break
    c_rep = CheckReport(True)
    for gi, g in enumerate(R.generators):
        pairs = sorted(g)
        if len(pairs) <= 1:
            continue
        for a in range(n):
            lefts = {act_left(bs, x, act_left(bs, y, (a,))) for x, y in pairs}
            rights = {act_right(bs, act_right(bs, (a,), x), y) for x, y in pairs}
            if len(lefts) > 1 or len(rights) > 1:
                c_rep = CheckReport(False, (gi, a), "support words act differently")
                break
        if not c_rep.holds:
            break
    return a_rep, b_rep, c_rep


def _t_generators(bs: BraidedSet, R: RSubgroup, k: int) -> list[dict]:
    """Degree-k generators of the two-sided ideal spanned by R: all
    paddings u * r * v of the R-generators by words."""
    n = bs.size
    out = []
    for g in R.generators:
        for i in range(k - 1):
            j = k - 2 - i
            for u in product(range(n), repeat=i):
                for v in product(range(n), repeat=j):
                    out.append({u + p + v: c for p, c in g.items()})
    return out


def _word_quotient(bs, gens, k, modulus):
    """Projection/section data for Z X^k modulo the span of `gens`.

    Returns (kept_labels, project, section_columns) where project maps a
    dict word->coeff to quotient coordinates.
    """
    n = bs.size
    all_words = list(product(range(n), repeat=k))
    if all(len(g) == 1 and abs(next(iter(g.values()))) == 1 for g in gens):
        removed = {next(iter(g)) for g in gens}
        kept = [w for w in all_words if w not in removed]
        pos = {w: i for i, w in enumerate(kept)}

        def project(vec: dict):
            out = [0] * len(kept)
            for w, c in vec.items():
                i = pos.get(w)
                if i is not None:
                    out[i] = c if modulus is None else (out[i] + c) % modulus
            return out

        section = [{w: 1} for w in kept]
        return kept, project, section
    index = {w: i for i, w in enumerate(all_words)}
    dim = len(all_words)
    if modulus is None:
        g = IntMatrix(dim, len(gens))
        for j, gen in enumerate(gens):
            for w, c in gen.items():
                g.data[index[w]][j] = c
        snf = smith_normal_form(g)
        r = len(snf.factors)
        if any(abs(d) != 1 for d in snf.factors):
            raise BraidedSetError(
                "R-quotient not free over Z; rerun with modular coefficients"
            )
        qdim = dim - r
        u = snf.U
        uinv = snf.Uinv

        def project(vec: dict):
            return [
                sum(u.data[i][index[w]] * c for w, c in vec.items())
                for i in range(r, dim)
            ]

        section = []
        for j in range(r, dim):
            col = {
                all_words[i]: uinv.data[i][j]
                for i in range(dim)
                if uinv.data[i][j]
            }
            section.append(col)
        kept = [f"q{j}" for j in range(qdim)]
        return kept, project, section
    # field case: row-reduce the generators mod p
    p = modulus
    rows = []
    for gen in gens:
        vec = [0] * dim
        for w, c in gen.items():
            vec[index[w]] = c % p
        rows.append(vec)
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * u) % p for v, u in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    rows = rows[:r]
    free = [i for i in range(dim) if i not in set(pivots)]
    free_pos = {i: t for t, i in enumerate(free)}

    def project(vec: dict):
        dense = [0] * dim
        for w, c in vec.items():
            dense[index[w]] = (dense[index[w]] + c) % p
        for row, piv in zip(rows, pivots):
            f = dense[piv]
            if f:
                dense = [(v - f * u) % p for v, u in zip(dense, row)]
        return [dense[i] for i in free]

    section = [{all_words[i]: 1} for i in free]
    kept = [all_words[i] for i in free]
    return kept, project, section


def quotient_complex(
    bs: BraidedSet, R: RSubgroup, M: Bimodule, K: int, modulus: int | None = None
) -> ChainComplex:
    """Quotient of the braided chain complex by M (x) T(X;R), constructed
    when the degreewise quotient lattice is free over Z (or over Z/p with
    a modulus).  Conditions A-C must hold for R."""
    a_rep, b_rep, c_rep = check_R_conditions(bs, R)
    for label, rep in (("A", a_rep), ("B", b_rep), ("C", c_rep)):
        if not rep.holds:
            raise BraidedSetError(f"condition {label} fails: {rep.detail} at {rep.witness}")
    _require_bimodule(bs, M)
    quotients = [
        _word_quotient(bs, _t_generators(bs, R, k), k, modulus) for k in range(K + 1)
    ]
    ranks = [len(q[0]) * M.rank for q in quotients]
    diffs = {}
    for k in range(1, K + 1):
        kept_k, _, section_k = quotients[k]
        _, project_prev, _ = quotients[k - 1]
        qdim_prev = len(quotients[k - 1][0])
        mat = IntMatrix(qdim_prev * M.rank, len(kept_k) * M.rank)
        for j, col in enumerate(section_k):
            for mi in range(M.rank):
                terms: dict = {}
                for w, c in col.items():
                    for key, c2 in chain_diff_terms(bs, M, w, mi).items():
                        _add(terms, key, c * c2)
                by_mj: dict = {}
                for (w, mj), c in terms.items():
                    by_mj.setdefault(mj, {})[w] = c
                for mj, vec in by_mj.items():
                    coords = project_prev(vec)
                    for qi, c in enumerate(coords):
                        if c:
                            mat.data[qi * M.rank + mj][j * M.rank + mi] += c
        # subcomplex check: the ideal must map into the ideal
        for t in _t_generators(bs, R, k):
            for mi in range(M.rank):
                terms = {}
                for w, c in t.items():
                    for key, c2 in chain_diff_terms(bs, M, w, mi).items():
                        _add(terms, key, c * c2)
                by_mj = {}
                for (w, mj), c in terms.items():
                    by_mj.setdefault(mj, {})[w] = c
                for mj, vec in by_mj.items():
                    if any(project_prev(vec)):
                        raise BraidedSetError(
                            f"T is not a subcomplex at degree {k} (conditions violated?)"
                        )
        diffs[k] = mat
    labels = []
    for k in range(K + 1):
        kept = quotients[k][0]
        if M.rank == 1:
            labels.append([str(w) for w in kept])
        else:
            labels.append([f"{w}*{M.labels[mi]}" for w in kept for mi in range(M.rank)])
    return ChainComplex(
        ranks,
        diffs,
        labels=labels,
        name=f"R-quotient chains of {bs.name}",
        field_modulus=modulus,
    )
