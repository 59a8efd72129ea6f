import ast
import random
from itertools import product

import pytest

import braidhom as bh
import braidhom.products as pr
from braidhom.hochschild import bar_basis, transport_bimodule

from conftest import c2_trivial_factorization, s3_factorization

SEED = 20240901


def test_finite_monoid_validation():
    with pytest.raises(bh.BraidedSetError, match="associativity"):
        bh.FiniteMonoid([[0, 1, 2], [1, 0, 2], [2, 2, 0]], unit=0)
    with pytest.raises(bh.BraidedSetError, match="unit law"):
        bh.FiniteMonoid([[1, 1], [1, 1]], unit=0)
    c6 = bh.direct_product(bh.cyclic_group(2), bh.cyclic_group(3))
    assert bh.monoid_isomorphic(c6, bh.cyclic_group(6)) is not None
    assert bh.monoid_isomorphic(bh.cyclic_group(4), c6) is None
    assert bh.monoid_isomorphic(
        bh.cyclic_group(4), bh.direct_product(bh.cyclic_group(2), bh.cyclic_group(2))
    ) is None


def test_symmetric_group_table():
    s3 = bh.symmetric_group(3)
    assert s3.size == 6
    orders = sorted(_order(s3, x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def _order(g, x):
    k, y = 1, x
    while y != g.unit:
        y = g.mul(y, x)
        k += 1
    return k


def test_enumerate_reduced_monoid_one_element():
    one = bh.identity_braiding(1)
    red = bh.enumerate_reduced_monoid(one, 0)
    assert red.monoid.size == 1
    assert red.words == [()]


def test_enumerate_reduced_monoid_c2(c2_fact):
    bs = c2_fact.braiding
    red = bh.enumerate_reduced_monoid(bs, bs.pseudo_unit)
    assert red.monoid.size == 2
    assert bh.monoid_isomorphic(red.monoid, bh.cyclic_group(2)) is not None


def test_enumerate_reduced_monoid_s3(s3_fact):
    bs = s3_fact.braiding
    red = bh.enumerate_reduced_monoid(bs, bs.pseudo_unit)
    assert red.monoid.size == 6
    assert bh.monoid_isomorphic(red.monoid, s3_fact.monoid) is not None
    # deterministic element order: by length then lexicographically
    assert red.words[0] == ()
    assert all(
        (len(a), a) < (len(b), b) for a, b in zip(red.words, red.words[1:])
    )


def test_enumerate_reduced_monoid_bound():
    # formally adjoined unit on a free monoid: closure never stabilizes
    ext = bh.adjoin_unit(bh.identity_braiding(2))
    with pytest.raises(bh.BoundExceeded, match="not finite within bound"):
        bh.enumerate_reduced_monoid(ext, ext.pseudo_unit, bound=64)
    # free on one generator and the symmetric monoid behave the same way
    one = bh.adjoin_unit(bh.identity_braiding(1))
    with pytest.raises(bh.BoundExceeded):
        bh.enumerate_reduced_monoid(one, one.pseudo_unit, bound=64)
    ext2 = bh.adjoin_unit(bh.minmax_braiding(2))
    with pytest.raises(bh.BoundExceeded):
        bh.enumerate_reduced_monoid(ext2, ext2.pseudo_unit, bound=64)


def test_normalized_bar_complex_one_element_monoid():
    one = bh.FiniteMonoid([[0]])
    cx = bh.normalized_bar_complex(one, bh.trivial_monoid_bimodule(one), 4)
    assert cx.ranks == [1, 0, 0, 0, 0]


def test_normalized_bar_complex_c2():
    c2 = bh.cyclic_group(2)
    cx = bh.normalized_bar_complex(c2, bh.trivial_monoid_bimodule(c2), 4)
    assert cx.ranks == [1, 1, 1, 1, 1]
    assert bh.verify_complex(cx).holds
    groups = [str(bh.homology(cx, k)) for k in range(4)]
    assert groups == ["Z", "Z/2", "0", "Z/2"]


def test_normalized_bar_complex_verifies_for_corpus():
    monoids = [
        bh.cyclic_group(2),
        bh.cyclic_group(3),
        bh.direct_product(bh.cyclic_group(2), bh.cyclic_group(2)),
        bh.direct_product(bh.cyclic_group(2), bh.cyclic_group(3)),
        bh.symmetric_group(3),
    ]
    for g in monoids:
        cx = bh.normalized_bar_complex(g, bh.trivial_monoid_bimodule(g), 4)
        assert bh.verify_complex(cx).holds, g.size


def test_critical_complex_reaches_textbook_group_homology(s3_fact):
    # classical integral homology, used as an oracle independent of any bar
    # complex: H_*(C2) alternates Z/2 and 0; H_*(S3) is 4-periodic
    # Z, Z/2, 0, Z/6, 0, Z/2, ...
    fact = c2_trivial_factorization()
    bs = fact.braiding
    crit = bh.critical_complex(bs, bh.trivial_bimodule(bs), 7, pseudo_unit=bs.pseudo_unit)
    assert [str(bh.homology(crit, k)) for k in range(7)] == [
        "Z", "Z/2", "0", "Z/2", "0", "Z/2", "0",
    ]
    bs3 = s3_fact.braiding
    crit3 = bh.critical_complex(bs3, bh.trivial_bimodule(bs3), 6, pseudo_unit=bs3.pseudo_unit)
    assert crit3.ranks == [2 ** (k + 1) - 1 for k in range(7)]
    assert [str(bh.homology(crit3, k)) for k in range(6)] == [
        "Z", "Z/2", "0", "Z/6", "0", "Z/2",
    ]


def test_critical_homology_of_s4():
    # S4 = S3.C4 (S3 fixing the last point, C4 generated by a 4-cycle);
    # textbook H_3(S4) = Z/2 + Z/12
    g = bh.symmetric_group(4)
    perm = {i: ast.literal_eval(name) for i, name in enumerate(g.names)}
    h = [i for i, p in perm.items() if p[3] == 3]
    c = next(i for i, p in perm.items() if p == (1, 2, 3, 0))
    k = [g.unit, c, g.mul(c, c), g.mul(g.mul(c, c), c)]
    bs = bh.exact_factorization(g, h, k).braiding
    crit = bh.critical_complex(bs, bh.trivial_bimodule(bs), 4, pseudo_unit=bs.pseudo_unit)
    # sum over p + q = k of (|K| - 1)^p (|H| - 1)^q
    assert crit.ranks == [1, 8, 49, 272, 1441]
    assert [str(bh.homology(crit, k)) for k in range(4)] == ["Z", "Z/2", "Z/2", "Z/2 + Z/12"]


def test_compare_homology_c3():
    fact = bh.trivial_factorization(bh.cyclic_group(3))
    bs = fact.braiding
    rep = bh.compare_homology(bs, bh.trivial_bimodule(bs), 4)
    assert rep.ok
    assert [str(d.bar) for d in rep.degrees] == ["Z", "Z/3", "0", "Z/3"]


def test_transport_bimodule_regular(s3_fact):
    bs = s3_fact.braiding
    red = bh.enumerate_reduced_monoid(bs, bs.pseudo_unit)
    alg = bh.monoid_bimodule(s3_fact.monoid, bs=bs, embedding=list(s3_fact.elements))
    transported = transport_bimodule(bs, alg, red)
    # the transported action of each element is the product of its letters
    for gi, w in enumerate(red.words):
        expect_left = bh.IntMatrix.identity(alg.rank)
        for x in w:
            expect_left = expect_left * alg.left[x]
        assert transported.left[gi] == expect_left


def test_qs_chain_map_checks():
    one = bh.identity_braiding(1)
    assert bh.qs_chain_map_check(one, bh.trivial_bimodule(one), 3).holds
    mm = bh.minmax_braiding(2)
    assert bh.qs_chain_map_check(mm, bh.trivial_bimodule(mm), 4).holds
    for fact in (c2_trivial_factorization(), s3_factorization()):
        bs = fact.braiding
        rep = bh.qs_chain_map_check(bs, bh.trivial_bimodule(bs), 3, e=bs.pseudo_unit)
        assert rep.holds, rep


def test_qs_chain_map_nontrivial_coefficients():
    mm = bh.minmax_braiding(2)
    assert bh.qs_chain_map_check(mm, bh.trivial_bimodule(mm, 2), 3).holds
    # a braiding whose adjoint actions combine gives a genuinely
    # nontrivial bimodule for the symbolic check
    bs = bh.size2_family("maxmax")
    right, left, rep = bh.adjoint_bimodule(bs)
    assert rep.holds
    M = bh.Bimodule(2, 2, left=left.left, right=right.right)
    assert bh.qs_chain_map_check(bs, M, 3).holds


def test_qs_chain_map_verifies_as_matrices(c2_fact):
    bs = c2_fact.braiding
    f = bh.qs_chain_map(bs, bh.trivial_bimodule(bs), 4, bs.pseudo_unit)
    assert bh.verify_chain_map(f).holds
    # degree 0 and 1 are identities here (single critical word per degree)
    assert f.component(0) == bh.IntMatrix.identity(1)
    assert f.component(1) == bh.IntMatrix.identity(1)


def test_compare_homology_c2(c2_fact):
    rep = bh.compare_homology(c2_fact.braiding, bh.trivial_bimodule(c2_fact.braiding), 4)
    assert rep.ok and rep.monoid_size == 2
    groups = [str(d.bar) for d in rep.degrees]
    assert groups == ["Z", "Z/2", "0", "Z/2"]


def test_compare_homology_s3(s3_fact):
    rep = bh.compare_homology(s3_fact.braiding, bh.trivial_bimodule(s3_fact.braiding), 4)
    assert rep.ok and rep.monoid_size == 6
    assert str(rep.degrees[1].critical) == "Z/2"
    assert str(rep.degrees[3].critical) == "Z/6"


def test_compare_homology_one_element_puibs():
    one = bh.identity_braiding(1)
    # letter 0 is its own pseudo-unit; the reduced monoid is trivial
    rep = bh.compare_homology(one, bh.trivial_bimodule(one), 3, e=0)
    assert rep.ok
    assert [str(d.critical) for d in rep.degrees] == ["Z", "0", "0"]


def test_compare_homology_group_ring_coefficients(c2_fact):
    # Hochschild homology of Z[C2] with coefficients in itself splits over
    # the two conjugacy classes: Z^2, (Z/2)^2, 0, (Z/2)^2
    bs = c2_fact.braiding
    alg = bh.monoid_bimodule(c2_fact.monoid, bs=bs, embedding=list(c2_fact.elements))
    rep = bh.compare_homology(bs, alg, 4)
    assert rep.ok
    groups = [str(d.bar) for d in rep.degrees]
    assert groups == ["Z^2", "Z/2 + Z/2", "0", "Z/2 + Z/2"]


def test_critical_cochain_cohomology_one_element():
    one = bh.identity_braiding(1)
    cc = bh.critical_complex(one, bh.trivial_bimodule(one), 5, cochain=True)
    assert cc.ascending
    assert [str(bh.homology(cc, k)) for k in range(5)] == ["Z", "Z", "0", "0", "0"]


def test_compare_homology_adjoins_unit_and_hits_bound():
    free = bh.identity_braiding(2)
    with pytest.raises(bh.BoundExceeded):
        bh.compare_homology(free, bh.trivial_bimodule(free), 3, bound=64)


def test_double_complex_c2xc3(c2xc3_fact):
    fact = c2xc3_fact
    M = bh.trivial_bimodule(fact.braiding)
    dc, total = bh.factorizable_double_complex(fact, M, 4)
    assert dc.verify().holds
    crit = bh.critical_complex(fact.braiding, M, 4, pseudo_unit=fact.braiding.pseudo_unit)
    assert total.ranks == crit.ranks
    assert all(total.diffs[k] == crit.diffs[k] for k in range(1, 5))
    # direct product: vertical faces never touch the H-part
    groups = [str(bh.homology(total, k)) for k in range(4)]
    bar = bh.normalized_bar_complex(
        bh.cyclic_group(6), bh.trivial_monoid_bimodule(bh.cyclic_group(6)), 4
    )
    assert groups == [str(bh.homology(bar, k)) for k in range(4)]
    assert groups[1] == "Z/6"


def test_double_complex_s3(s3_fact):
    M = bh.trivial_bimodule(s3_fact.braiding)
    dc, total = bh.factorizable_double_complex(s3_fact, M, 4)
    assert dc.verify().holds
    crit = bh.critical_complex(
        s3_fact.braiding, M, 4, pseudo_unit=s3_fact.braiding.pseudo_unit
    )
    assert all(total.diffs[k] == crit.diffs[k] for k in range(1, 5))
    rep = bh.compare_homology(s3_fact.braiding, M, 4)
    for k in range(4):
        assert bh.homology(total, k) == rep.degrees[k].bar


def test_double_complex_with_regular_coefficients(c2_fact):
    bs = c2_fact.braiding
    alg = bh.monoid_bimodule(c2_fact.monoid, bs=bs, embedding=list(c2_fact.elements))
    dc, total = bh.factorizable_double_complex(c2_fact, alg, 3)
    assert dc.verify().holds
    crit = bh.critical_complex(bs, alg, 3, pseudo_unit=bs.pseudo_unit)
    assert all(total.diffs[k] == crit.diffs[k] for k in range(1, 4))


def test_kunneth_c2xc2(c2xc2_fact):
    M = bh.trivial_bimodule(c2xc2_fact.braiding)
    _, total = bh.factorizable_double_complex(c2xc2_fact, M, 4)
    g = bh.direct_product(bh.cyclic_group(2), bh.cyclic_group(2))
    bar = bh.normalized_bar_complex(g, bh.trivial_monoid_bimodule(g), 4)
    for k in range(4):
        assert bh.homology(total, k) == bh.homology(bar, k)
    # H_1(C2 x C2) = Z/2 + Z/2
    assert bh.homology(total, 1) == bh.AbelianGroupInvariants(0, (2, 2))


def test_factorizable_cup_matches_generic(s3_fact, c2_fact):
    rng = random.Random(SEED)
    ring = bh.CoeffRing()
    for fact in (c2_fact, s3_fact):
        bs = fact.braiding
        e = bs.pseudo_unit
        for s, t in [(1, 1), (1, 2), (2, 1)]:
            f = bh.Cochain(s, ring, {w: rng.randrange(-3, 4) for w in bh.critical_basis(bs, s, e)})
            g = bh.Cochain(t, ring, {w: rng.randrange(-3, 4) for w in bh.critical_basis(bs, t, e)})
            closed = bh.factorizable_cup(fact, f, g)
            generic = bh.cup_product(bs, f, g)
            for w in bh.critical_basis(bs, s + t, e):
                assert closed[w] == generic[w], (fact.monoid.size, s, t)


def test_factorizable_cup_degenerate_cases(s3_fact):
    rng = random.Random(SEED)
    ring = bh.CoeffRing()
    bs = s3_fact.braiding
    e = bs.pseudo_unit
    # s = 0: f is a constant and the formula degenerates to a scalar multiple
    c = bh.Cochain(0, ring, {(): 5})
    g = bh.Cochain(2, ring, {w: rng.randrange(-3, 4) for w in bh.critical_basis(bs, 2, e)})
    out = bh.factorizable_cup(s3_fact, c, g)
    for w in bh.critical_basis(bs, 2, e):
        assert out[w] == 5 * g[w]


def test_factorizable_cup_direct_product_single_block(c2xc3_fact):
    # in the direct-product case the braid does not transform letters, so
    # each r-term is a plain block split
    fact = c2xc3_fact
    bs = fact.braiding
    rng = random.Random(SEED)
    ring = bh.CoeffRing()
    f = bh.Cochain(1, ring, {w: rng.randrange(-3, 4) for w in bh.critical_basis(bs, 1, bs.pseudo_unit)})
    g = bh.Cochain(1, ring, {w: rng.randrange(-3, 4) for w in bh.critical_basis(bs, 1, bs.pseudo_unit)})
    out = bh.factorizable_cup(fact, f, g)
    generic = bh.cup_product(bs, f, g)
    for w in bh.critical_basis(bs, 2, bs.pseudo_unit):
        assert out[w] == generic[w]


def test_qs_vanishing_spanning_set(s3_fact):
    bs = s3_fact.braiding
    e = bs.pseudo_unit
    for k in range(2, 4):
        for w in product(range(bs.size), repeat=k):
            if not bh.is_critical_word(bs, w, e):
                assert bh.reduced_quantum_symmetrizer(bs, e, w) == {}, w


def test_qs_pullback_preserves_cup(c2_fact, s3_fact):
    rng = random.Random(SEED)
    ring = bh.CoeffRing(7)
    for fact in (c2_fact, s3_fact):
        bs = fact.braiding
        e = bs.pseudo_unit
        red = bh.enumerate_reduced_monoid(bs, e)
        nonunit = [i for i in range(red.monoid.size) if i != red.monoid.unit]

        def pullback(table, deg):
            out = bh.Cochain(deg, ring)
            for w in product(range(bs.size), repeat=deg):
                acc = 0
                for t, c in bh.reduced_quantum_symmetrizer(bs, e, w).items():
                    acc += c * table.get(tuple(red.letter(x) for x in t), 0)
                out[w] = acc
            return out

        for p, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            F = {t: rng.randrange(-3, 4) for t in product(nonunit, repeat=p)}
            G = {t: rng.randrange(-3, 4) for t in product(nonunit, repeat=q)}
            FG = {
                t: ring.normalize(F.get(t[:p], 0) * G.get(t[p:], 0))
                for t in product(nonunit, repeat=p + q)
            }
            assert pullback(FG, p + q) == bh.cup_product(bs, pullback(F, p), pullback(G, q)), (
                fact.monoid.size,
                p,
                q,
            )


def test_qs_pullback_preserves_cup_unreduced():
    # without a pseudo-unit: letters are distinct monoid elements, and
    # monoid cochains restrict freely to letter tuples
    rng = random.Random(SEED)
    ring = bh.CoeffRing(7)
    bs = bh.minmax_braiding(2)

    def pullback(table, deg):
        out = bh.Cochain(deg, ring)
        for w in product(range(bs.size), repeat=deg):
            acc = 0
            for t, c in bh.quantum_symmetrizer(bs, w).items():
                acc += c * table.get(t, 0)
            out[w] = acc
        return out

    for p, q in [(1, 1), (2, 1), (2, 2)]:
        F = {t: rng.randrange(-3, 4) for t in product(range(2), repeat=p)}
        G = {t: rng.randrange(-3, 4) for t in product(range(2), repeat=q)}
        FG = {
            t: ring.normalize(F[t[:p]] * G[t[p:]]) for t in product(range(2), repeat=p + q)
        }
        assert pullback(FG, p + q) == bh.cup_product(bs, pullback(F, p), pullback(G, q))


def test_bar_basis_excludes_unit():
    c2 = bh.cyclic_group(2)
    assert bar_basis(c2, 2) == [(1, 1)]
    assert bar_basis(c2, 0) == [()]


def test_monoid_json_roundtrip():
    s3 = bh.symmetric_group(3)
    again = bh.FiniteMonoid.from_json(s3.to_json())
    assert again == s3
