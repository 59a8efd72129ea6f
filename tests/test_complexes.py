from itertools import product

import pytest

import braidhom as bh
from braidhom.complexes import chain_diff_terms

from conftest import c2_trivial_factorization, small_catalog


def test_one_element_full_complex():
    one = bh.identity_braiding(1)
    cx = bh.braided_chain_complex(one, bh.trivial_bimodule(one), 5)
    assert cx.ranks == [1] * 6
    assert all(m.is_zero() for m in cx.diffs.values())


def test_degree_one_differential_formula():
    # d1(m, x) = m.x - x.m as a matrix identity
    for name, bs in small_catalog():
        right, left, rep = bh.adjoint_bimodule(bs)
        mods = [bh.trivial_bimodule(bs, 2)]
        if rep.holds:
            mods.append(
                bh.Bimodule(bs.size, bs.size, left=left.left, right=right.right)
            )
        for M in mods:
            cx = bh.braided_chain_complex(bs, M, 1)
            r = M.rank
            for x in range(bs.size):
                for mi in range(r):
                    col = cx.diffs[1].column(x * r + mi)
                    expect = [
                        M.right[x].data[mj][mi] - M.left[x].data[mj][mi] for mj in range(r)
                    ]
                    assert col == expect, name


def test_assoc_braiding_left_family_is_bar_construction():
    # with the multiplication braiding of a monoid G, the left differential
    # family is exactly the bar construction of G
    c2 = bh.cyclic_group(2)
    fact = bh.trivial_factorization(c2)
    bs = fact.braiding
    alg = bh.monoid_bimodule(c2, bs=bs, embedding=list(fact.elements))
    left, right, rep = bh.split_differentials(bs, alg, 3)
    assert rep.holds
    r = alg.rank
    for k in range(1, 4):
        words = list(product(range(bs.size), repeat=k))
        index = {w: i for i, w in enumerate(list(product(range(bs.size), repeat=k - 1)))}
        expected = bh.IntMatrix(len(index) * r, len(words) * r)
        for col, w in enumerate(words):
            for mi in range(r):
                # (m.x1, x2..) - (m, x1x2, ..) + ... +- (m, .., x_{k-1}x_k)
                for mj in range(r):
                    c = alg.right[w[0]].data[mj][mi]
                    if c:
                        expected.data[index[w[1:]] * r + mj][col * r + mi] += c
                for i in range(1, k):
                    g = fact.elements.index(
                        c2.mul(fact.elements[w[i - 1]], fact.elements[w[i]])
                    )
                    v = w[: i - 1] + (g,) + w[i + 1 :]
                    sign = -1 if i % 2 else 1
                    expected.data[index[v] * r + mi][col * r + mi] += sign
        assert left[k] == expected, k


def test_two_sided_complex():
    mm = bh.minmax_braiding(2)
    right, left, _ = bh.adjoint_bimodule(mm)
    cx = bh.braided_two_sided_complex(mm, right, left, 4)
    assert bh.verify_complex(cx).holds
    # N = trivial rank 1 left module reduces to the one-sided differential of
    # a right module against trivial left actions
    triv = bh.trivial_bimodule(mm, 1)
    cx2 = bh.braided_two_sided_complex(mm, right, triv, 3)
    assert bh.verify_complex(cx2).holds
    both = bh.Bimodule(mm.size, mm.size, left=triv_left(mm, mm.size), right=right.right)
    cx3 = bh.braided_chain_complex(mm, both, 3)
    assert cx2.ranks == cx3.ranks
    assert all(cx2.diffs[k] == cx3.diffs[k] for k in range(1, 4))


def triv_left(bs, rank):
    return [bh.IntMatrix.identity(rank) for _ in range(bs.size)]


def test_two_sided_trivial_identity_braiding_parity_pattern():
    # identity-braiding crossings are color-transparent, so every face
    # deletes an end letter: even differentials cancel to zero and odd ones
    # are (drop first) - (drop last)
    ident = bh.identity_braiding(2)
    triv = bh.trivial_bimodule(ident, 1)
    cx = bh.braided_two_sided_complex(ident, triv, triv, 4)
    assert cx.diffs[2].is_zero() and cx.diffs[4].is_zero()
    for k in (1, 3):
        words = list(product(range(2), repeat=k))
        prev = {w: i for i, w in enumerate(product(range(2), repeat=k - 1))}
        expect = bh.IntMatrix(len(prev), len(words))
        for col, w in enumerate(words):
            expect.data[prev[w[1:]]][col] += 1
            expect.data[prev[w[:-1]]][col] -= 1
        assert cx.diffs[k] == expect


def test_cochain_complex_formulas():
    for bs in (bh.minmax_braiding(3), bh.size2_family("constant")):
        M = bh.trivial_bimodule(bs)
        cx = bh.braided_cochain_complex(bs, M, 3)
        assert cx.ascending and bh.verify_complex(cx).holds
        # d1 g (x) = x.m - m.x = 0 for trivial coefficients
        assert cx.diffs[1].is_zero()
        # d2 f (x1,x2) = f(x1) + f(x2) - f(x2') - f(x1')
        words1 = list(product(range(bs.size), repeat=1))
        index1 = {w: i for i, w in enumerate(words1)}
        for row, w in enumerate(product(range(bs.size), repeat=2)):
            x1, x2 = w
            x2p, x1p = bs.pair(x1, x2)
            expect = [0] * len(words1)
            for v, c in (((x1,), 1), ((x2,), 1), ((x2p,), -1), ((x1p,), -1)):
                expect[index1[v]] += c
            assert cx.diffs[2].data[row] == expect


def test_cochain_identity_braiding_d2_zero():
    ident = bh.identity_braiding(3)
    cx = bh.braided_cochain_complex(ident, bh.trivial_bimodule(ident), 2)
    assert cx.diffs[2].is_zero()


def test_cochain_with_adjoint_coefficients():
    mm = bh.minmax_braiding(2)
    right, left, rep = bh.adjoint_bimodule(bh.flip_braiding(2))
    # flip adjoint actions are trivial, so use them over the flip itself
    flip = bh.flip_braiding(2)
    M = bh.Bimodule(2, 2, left=left.left, right=right.right)
    cx = bh.braided_cochain_complex(flip, M, 3)
    assert bh.verify_complex(cx).holds


def test_split_differentials_agree():
    cases = [
        ("minmax:2", bh.minmax_braiding(2), 4),
        ("fact:C2", c2_trivial_factorization().braiding, 3),
        ("size2:maxmax", bh.size2_family("maxmax"), 4),
        ("identity:2", bh.identity_braiding(2), 4),
    ]
    for name, bs, K in cases:
        left, right, rep = bh.split_differentials(bs, bh.trivial_bimodule(bs), K)
        assert rep.holds, name
        assert set(left) == set(right) == set(range(1, K + 1))
        # degree 1: d1 = d_left - d_right both ways
        cx = bh.braided_chain_complex(bs, bh.trivial_bimodule(bs), 1)
        recomb = [
            [l - r for l, r in zip(lrow, rrow)]
            for lrow, rrow in zip(left[1].data, right[1].data)
        ]
        assert recomb == cx.diffs[1].data, name


def test_full_complexes_verify_small_catalog():
    for name, bs in small_catalog():
        M = bh.trivial_bimodule(bs)
        cx = bh.braided_chain_complex(bs, M, 4)
        assert bh.verify_complex(cx).holds, name
        right, left, rep = bh.adjoint_bimodule(bs)
        cx2 = bh.braided_two_sided_complex(bs, right, left, 3)
        assert bh.verify_complex(cx2).holds, name


def test_critical_basis():
    # minmax: strictly decreasing words; identity: lengths 0 and 1 only
    mm = bh.minmax_braiding(3)
    assert bh.critical_basis(mm, 2) == [(1, 0), (2, 0), (2, 1)]
    ident = bh.identity_braiding(3)
    assert bh.critical_basis(ident, 0) == [()]
    assert bh.critical_basis(ident, 1) == [(0,), (1,), (2,)]
    assert bh.critical_basis(ident, 2) == []


def test_critical_basis_factorization_shapes(s3_fact):
    bs = s3_fact.braiding
    e = bs.pseudo_unit
    in_h = {x for x in range(bs.size) if s3_fact.elements[x] in s3_fact.H and x != e}
    for k in range(4):
        words = bh.critical_basis(bs, k, e)
        # K-letters then H-letters, never the unit
        for w in words:
            assert e not in w
            seen_h = False
            for x in w:
                if x in in_h:
                    seen_h = True
                else:
                    assert not seen_h, w
        assert len(words) == sum(1 * 2**q for q in range(k + 1))


def test_critical_projection_section_identity():
    mm = bh.minmax_braiding(3)
    for k in range(4):
        words = bh.critical_basis(mm, k)
        index = {w: i for i, w in enumerate(words)}
        for w in words:
            assert index[w] == words.index(w)
            assert bh.is_critical_word(mm, w)


def test_critical_complex_one_element():
    one = bh.identity_braiding(1)
    M = bh.trivial_bimodule(one)
    crit = bh.critical_complex(one, M, 5)
    assert crit.ranks == [1, 1, 0, 0, 0, 0]
    assert all(m.is_zero() for m in crit.diffs.values())
    groups = [str(bh.homology(crit, k)) for k in range(5)]
    assert groups == ["Z", "Z", "0", "0", "0"]
    # pseudo-unital variant: only the empty word remains
    red = bh.critical_complex(one, M, 5, pseudo_unit=0)
    assert red.ranks == [1, 0, 0, 0, 0, 0]


def test_critical_complex_symmetric_monoid():
    mm = bh.minmax_braiding(3)
    crit = bh.critical_complex(mm, bh.trivial_bimodule(mm), 5)
    assert crit.ranks == [1, 3, 3, 1, 0, 0]
    assert all(m.is_zero() for m in crit.diffs.values())


def test_critical_complex_free_monoid():
    free = bh.identity_braiding(2)
    crit = bh.critical_complex(free, bh.trivial_bimodule(free), 4)
    groups = [str(bh.homology(crit, k)) for k in range(4)]
    assert groups == ["Z", "Z^2", "0", "0"]


def test_critical_complexes_verify():
    for name, bs in small_catalog():
        crit = bh.critical_complex(bs, bh.trivial_bimodule(bs), 4, pseudo_unit=bs.pseudo_unit)
        assert bh.verify_complex(crit).holds, name


def test_fixed_pairs_subgroup():
    ident = bh.identity_braiding(2)
    assert len(bh.fixed_pairs_subgroup(ident).generators) == 4
    mm = bh.minmax_braiding(2)
    assert [sorted(g) for g in bh.fixed_pairs_subgroup(mm).generators] == [
        [(0, 0)],
        [(0, 1)],
        [(1, 1)],
    ]
    flip = bh.flip_braiding(2)
    gens = bh.symmetrizer_pairs_subgroup(flip).generators
    assert {(0, 0): 2} in gens and {(0, 1): 1, (1, 0): 1} in gens


def test_R_conditions():
    for name, bs in small_catalog():
        a, b, c = bh.check_R_conditions(bs, bh.fixed_pairs_subgroup(bs))
        assert a.holds and b.holds and c.holds, name
    flip = bh.flip_braiding(2)
    a, b, c = bh.check_R_conditions(flip, bh.symmetrizer_pairs_subgroup(flip))
    assert a.holds and b.holds and c.holds  # flip is involutive
    mm = bh.minmax_braiding(2)
    a, _, _ = bh.check_R_conditions(mm, bh.symmetrizer_pairs_subgroup(mm))
    assert not a.holds  # minmax is not involutive


def test_quotient_by_fixed_pairs_equals_critical():
    for name, bs in [("minmax:2", bh.minmax_braiding(2)), ("maxmax", bh.size2_family("maxmax"))]:
        M = bh.trivial_bimodule(bs)
        q = bh.quotient_complex(bs, bh.fixed_pairs_subgroup(bs), M, 4)
        crit = bh.critical_complex(bs, M, 4)
        assert q.ranks == crit.ranks, name
        assert all(q.diffs[k] == crit.diffs[k] for k in range(1, 5)), name


def test_quotient_matches_critical_with_higher_rank():
    mm = bh.minmax_braiding(2)
    M2 = bh.trivial_bimodule(mm, 2)
    q = bh.quotient_complex(mm, bh.fixed_pairs_subgroup(mm), M2, 3)
    crit = bh.critical_complex(mm, M2, 3)
    assert q.ranks == crit.ranks
    assert all(q.diffs[k] == crit.diffs[k] for k in range(1, 4))


def test_functional_cochain_diff_matches_matrix_route(c2_fact, s3_fact):
    # the matrix cochain complexes, braided and critical, against the
    # functional differential, with coefficients of rank > 1 whose left and
    # right actions differ
    import random

    cases = []
    for fact in (c2_fact, s3_fact):
        bs = fact.braiding
        cases.append((bs, bh.monoid_bimodule(fact.monoid, bs=bs, embedding=list(fact.elements))))
    for tag in ("constant", "maxmax"):
        bs = bh.size2_family(tag)
        right, left, rep = bh.adjoint_bimodule(bs)
        assert rep.holds
        cases.append((bs, bh.Bimodule(bs.size, bs.size, left=left.left, right=right.right)))
    for bs, M in cases:
        r = M.rank
        full = bh.braided_cochain_complex(bs, M, 3)
        crit = bh.critical_complex(bs, M, 3, pseudo_unit=bs.pseudo_unit, cochain=True)
        for cx, basis in (
            (full, lambda k: list(product(range(bs.size), repeat=k))),
            (crit, lambda k: bh.critical_basis(bs, k, bs.pseudo_unit)),
        ):
            for k in (1, 2):
                src, tgt = basis(k), basis(k + 1)
                for seed in range(8):
                    rng = random.Random(seed)
                    f = bh.Cochain(k, M)
                    for w in src:
                        f[w] = tuple(rng.randrange(-2, 3) for _ in range(r))
                    df = bh.cochain_diff(bs, f)
                    assert not bh.cochain_diff(bs, df).values  # d.d = 0
                    vec = [f[w][mi] for w in src for mi in range(r)]
                    out = [sum(a * b for a, b in zip(row, vec)) for row in cx.diffs[k + 1].data]
                    for i, w in enumerate(tgt):
                        assert tuple(out[i * r : (i + 1) * r]) == df[w], (cx.name, k, seed, w)


def test_quotient_by_zero_is_identity():
    mm = bh.minmax_braiding(2)
    M = bh.trivial_bimodule(mm)
    q = bh.quotient_complex(mm, bh.RSubgroup([]), M, 3)
    full = bh.braided_chain_complex(mm, M, 3)
    assert q.ranks == full.ranks
    assert all(q.diffs[k] == full.diffs[k] for k in range(1, 4))


def test_quotient_torsion_rejected():
    flip = bh.flip_braiding(2)
    with pytest.raises(bh.BraidedSetError, match="modular coefficients"):
        bh.quotient_complex(flip, bh.symmetrizer_pairs_subgroup(flip), bh.trivial_bimodule(flip), 3)


def test_quotient_free_case_off_diagonal():
    flip = bh.flip_braiding(2)
    off = bh.RSubgroup([g for g in bh.symmetrizer_pairs_subgroup(flip).generators if len(g) == 2])
    q = bh.quotient_complex(flip, off, bh.trivial_bimodule(flip), 4)
    assert bh.verify_complex(q).holds
    # quotient rank = word count minus the rational rank of the ideal span
    from braidhom.complexes import _t_generators

    for k in range(5):
        gens = _t_generators(flip, off, k)
        words = list(product(range(2), repeat=k))
        index = {w: i for i, w in enumerate(words)}
        mat = bh.IntMatrix(len(words), len(gens))
        for j, g in enumerate(gens):
            for w, c in g.items():
                mat.data[index[w]][j] = c
        assert q.ranks[k] == len(words) - bh.rational_rank(mat)


def test_quotient_modular_route():
    flip = bh.flip_braiding(2)
    Rp = bh.symmetrizer_pairs_subgroup(flip)
    q = bh.quotient_complex(flip, Rp, bh.trivial_bimodule(flip), 3, modulus=5)
    assert q.field_modulus == 5
    assert bh.verify_complex(q).holds
    assert q.ranks == [1, 2, 1, 0]
    # flip differentials vanish, so homology dims equal the ranks, over Z/5
    assert [str(bh.homology(q, k)) for k in range(4)] == ["Z/5", "(Z/5)^2", "Z/5", "0"]


def test_quotient_requires_conditions():
    mm = bh.minmax_braiding(2)
    with pytest.raises(bh.BraidedSetError, match="condition A"):
        bh.quotient_complex(mm, bh.symmetrizer_pairs_subgroup(mm), bh.trivial_bimodule(mm), 2)


def test_chain_diff_terms_factorization_bar_shape(c2_fact):
    # over the multiplication braiding, d has the Hochschild shape after
    # dropping unit letters: check one hand-expanded case
    bs = c2_fact.braiding
    g = c2_fact.monoid
    M = bh.trivial_bimodule(bs)
    t = next(x for x in range(bs.size) if x != bs.pseudo_unit)
    terms = chain_diff_terms(bs, M, (t, t), 0)
    # d(t,t) = (m.t, t) - (m, tt) + (m, 1...)-terms + (t.m, t)
    # with trivial coefficients and tt = 1 the unit-letter words remain
    e = bs.pseudo_unit
    assert terms.get(((t,), 0), 0) == 2
    assert terms.get(((e,), 0), 0) == -2
