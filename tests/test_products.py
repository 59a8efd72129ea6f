import random
from itertools import permutations, product
from math import comb

import pytest

import braidhom as bh
import braidhom.products as pr
from braidhom.braided import reduced_word

from conftest import c2_trivial_factorization, small_catalog

RNG_SEED = 20240901


def ring():
    return bh.CoeffRing()


def mod7():
    return bh.CoeffRing(7)


def test_shuffle_set_counts():
    assert [s.perm for s in bh.shuffle_set(1, 1)] == [(0, 1), (1, 0)]
    assert len(bh.shuffle_set(2, 1)) == 3
    for p in range(5):
        for q in range(5):
            assert len(bh.shuffle_set(p, q)) == comb(p + q, p)
    # block-increasing property and length = inversion count
    for s in bh.shuffle_set(2, 3):
        assert s.perm[0] < s.perm[1]
        assert s.perm[2] < s.perm[3] < s.perm[4]
        assert s.length == sum(
            1 for i in range(5) for j in range(i + 1, 5) if s.perm[i] > s.perm[j]
        )


def test_lift_permutation():
    assert reduced_word((0, 1, 2)) == ()
    assert reduced_word((1, 0)) == (1,)
    longest = (2, 1, 0)
    word = reduced_word(longest)
    assert len(word) == 3 == sum(1 for i in range(3) for j in range(i + 1, 3) if longest[i] > longest[j])
    assert word == (1, 2, 1)


def test_lift_cross_check_two_reduced_words():
    # any reduced word acts identically once the YBE holds
    for name, bs in small_catalog():
        for perm in permutations(range(3)):
            for w in product(range(bs.size), repeat=3):
                assert pr.lift_cross_check(bs, perm, w).holds, name


def test_shuffle_product_examples():
    mm = bh.minmax_braiding(3)
    assert bh.shuffle_product(mm, (), (0, 1)) == {(0, 1): 1}
    # xy sh_{-sigma} z = xyz - x z' y' + z'' x' y'
    for x, y, z in product(range(3), repeat=3):
        zp, yp = mm.pair(y, z)
        zpp, xp = mm.pair(x, zp)
        expect = {}
        for w, c in [((x, y, z), 1), ((x, zp, yp), -1), ((zpp, xp, yp), 1)]:
            expect[w] = expect.get(w, 0) + c
        expect = {w: c for w, c in expect.items() if c}
        assert bh.shuffle_product(mm, (x, y), (z,)) == expect
    # identity braiding: the two signed shuffles of x with x cancel
    ident = bh.identity_braiding(2)
    assert bh.shuffle_product(ident, (1,), (1,)) == {}
    assert bh.shuffle_product(ident, (1,), (1,), signed=False) == {(1, 1): 2}


def test_shuffle_product_associative():
    for name, bs in [("minmax:2", bh.minmax_braiding(2)), ("fact:C2", c2_trivial_factorization().braiding)]:
        for signed in (True, False):
            words = [w for k in range(3) for w in product(range(bs.size), repeat=k)]
            for u in words:
                for v in words:
                    for w in words:
                        if len(u) + len(v) + len(w) > 5:
                            continue
                        lhs = {}
                        for t, c in bh.shuffle_product(bs, u, v, signed).items():
                            for t2, c2 in bh.shuffle_product(bs, t, w, signed).items():
                                lhs[t2] = lhs.get(t2, 0) + c * c2
                        rhs = {}
                        for t, c in bh.shuffle_product(bs, v, w, signed).items():
                            for t2, c2 in bh.shuffle_product(bs, u, t, signed).items():
                                rhs[t2] = rhs.get(t2, 0) + c * c2
                        lhs = {k2: v2 for k2, v2 in lhs.items() if v2}
                        rhs = {k2: v2 for k2, v2 in rhs.items() if v2}
                        assert lhs == rhs, name


def test_shuffle_coproduct():
    mm = bh.minmax_braiding(2)
    w = (1, 0, 1)
    assert bh.shuffle_coproduct(mm, w, 3, 0) == {(w, ()): 1}
    assert bh.shuffle_coproduct(mm, w, 0, 3) == {((), w): 1}
    for x, y in product(range(2), repeat=2):
        got = bh.shuffle_coproduct(mm, (x, y), 1, 1)
        expect = {}
        expect[((x,), (y,))] = expect.get(((x,), (y,)), 0) + 1
        a, b = mm.pair(x, y)
        key = ((a,), (b,))
        expect[key] = expect.get(key, 0) - 1
        expect = {k: v for k, v in expect.items() if v}
        assert got == expect
    with pytest.raises(bh.BraidedSetError, match="word length"):
        bh.shuffle_coproduct(mm, (0,), 1, 1)


def test_shuffle_coproduct_coassociative():
    rng = random.Random(RNG_SEED)
    for name, bs in [("minmax:3", bh.minmax_braiding(3)), ("size2:maxmax", bh.size2_family("maxmax"))]:
        for _ in range(30):
            total = rng.randrange(2, 6)
            w = tuple(rng.randrange(bs.size) for _ in range(total))
            splits = [
                (p, q, r)
                for p in range(total + 1)
                for q in range(total + 1 - p)
                for r in (total - p - q,)
            ]
            for p, q, r in splits:
                lhs = {}
                for (u, v), c in bh.shuffle_coproduct(bs, w, p + q, r).items():
                    for (u1, u2), c2 in bh.shuffle_coproduct(bs, u, p, q).items():
                        key = (u1, u2, v)
                        lhs[key] = lhs.get(key, 0) + c * c2
                rhs = {}
                for (u, v), c in bh.shuffle_coproduct(bs, w, p, q + r).items():
                    for (v1, v2), c2 in bh.shuffle_coproduct(bs, v, q, r).items():
                        key = (u, v1, v2)
                        rhs[key] = rhs.get(key, 0) + c * c2
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs, name


def test_quantum_symmetrizer():
    mm = bh.minmax_braiding(3)
    assert bh.quantum_symmetrizer(mm, (2,)) == {(2,): 1}
    for x, y in product(range(3), repeat=2):
        expect = {(x, y): 1}
        img = mm.pair(x, y)
        expect[img] = expect.get(img, 0) - 1
        expect = {k: v for k, v in expect.items() if v}
        assert bh.quantum_symmetrizer(mm, (x, y)) == expect
    # identity braiding, distinct letters: alternating sum of all placements
    ident = bh.identity_braiding(3)
    got = bh.quantum_symmetrizer(ident, (0, 1, 2))
    # crossings never change colors, so every permutation acts trivially:
    # the 6 signed terms collapse onto the original word and cancel to zero
    assert got == {}
    # over the flip the terms are the honest permuted words with signs
    flip = bh.flip_braiding(3)
    got = bh.quantum_symmetrizer(flip, (0, 1, 2))
    expect = {}
    for s in permutations(range(3)):
        w = tuple(s.index(i) for i in range(3))
        w = tuple(sorted(range(3), key=lambda i: s[i]))
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if s[i] > s[j])
        word = tuple(2 - 0 if False else 0 for _ in range(3))
        expect = expect  # placeholder, replaced below
    expect = {}
    for s in permutations(range(3)):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if s[i] > s[j])
        # strand i ends at position s[i]; colors travel with strands
        word = [0] * 3
        for i in range(3):
            word[s[i]] = (0, 1, 2)[i]
        expect[tuple(word)] = expect.get(tuple(word), 0) + (-1 if inv % 2 else 1)
    assert got == expect


def test_quantum_symmetrizer_vanishes_on_normal_pairs():
    for name, bs in small_catalog():
        for k in range(2, 5):
            for w in product(range(bs.size), repeat=k):
                if bh.is_critical_word(bs, w):
                    continue
                assert bh.quantum_symmetrizer(bs, w) == {}, (name, w)


def test_quantum_symmetrizer_factorizes():
    for name, bs in [("minmax:2", bh.minmax_braiding(2)), ("fact:C2", c2_trivial_factorization().braiding)]:
        for total in range(2, 6):
            for w in product(range(bs.size), repeat=total):
                lhs = bh.quantum_symmetrizer(bs, w)
                for p in range(total + 1):
                    q = total - p
                    rhs = {}
                    for (u1, u2), c in bh.shuffle_coproduct(bs, w, p, q).items():
                        for t1, c1 in bh.quantum_symmetrizer(bs, u1).items():
                            for t2, c2 in bh.quantum_symmetrizer(bs, u2).items():
                                key = t1 + t2
                                rhs[key] = rhs.get(key, 0) + c * c1 * c2
                    rhs = {k: v for k, v in rhs.items() if v}
                    assert lhs == rhs, (name, w, p)


def test_quantum_symmetrizer_equals_iterated_shuffle():
    for name, bs in [("minmax:2", bh.minmax_braiding(2)), ("size2:constant", bh.size2_family("constant"))]:
        for k in range(1, 5):
            for w in product(range(bs.size), repeat=k):
                assert bh.quantum_symmetrizer(bs, w) == pr.iterated_signed_shuffle(bs, w), name


def test_reduced_quantum_symmetrizer(c2_fact, s3_fact):
    bs = c2_fact.braiding
    e = bs.pseudo_unit
    t = 1 - e
    # words containing the pseudo-unit die
    assert bh.reduced_quantum_symmetrizer(bs, e, (t, e)) == {}
    # normal pairs die
    assert bh.reduced_quantum_symmetrizer(bs, e, (e, t)) == {}
    # (t, t): the sigma-image (1, 1) reduces to empty components and drops
    assert bh.reduced_quantum_symmetrizer(bs, e, (t, t)) == {(t, t): 1}
    bs3 = s3_fact.braiding
    for w in product(range(bs3.size), repeat=3):
        out = bh.reduced_quantum_symmetrizer(bs3, bs3.pseudo_unit, w)
        assert all(bs3.pseudo_unit not in term for term in out)


def test_cup_product_degree_one_pair():
    rng = random.Random(RNG_SEED)
    for name, bs in small_catalog():
        f = pr.seeded_cochain(bs, 1, ring(), rng)
        g = pr.seeded_cochain(bs, 1, ring(), rng)
        cup = bh.cup_product(bs, f, g)
        for x, y in product(range(bs.size), repeat=2):
            a, b = bs.pair(x, y)
            assert cup[(x, y)] == f[(x,)] * g[(y,)] - f[(a,)] * g[(b,)], name


def test_cup_flip_antisymmetrizes_and_identity_vanishes():
    # the color-transparent identity braiding makes the two (1,1)-shuffle
    # terms cancel; the flip gives the classical antisymmetrization
    rng = random.Random(3)
    ident = bh.identity_braiding(3)
    f = pr.seeded_cochain(ident, 1, ring(), rng)
    g = pr.seeded_cochain(ident, 1, ring(), rng)
    assert not bh.cup_product(ident, f, g).values
    flip = bh.flip_braiding(3)
    f = pr.seeded_cochain(flip, 1, ring(), rng)
    g = pr.seeded_cochain(flip, 1, ring(), rng)
    cup = bh.cup_product(flip, f, g)
    for x, y in product(range(3), repeat=2):
        assert cup[(x, y)] == f[(x,)] * g[(y,)] - f[(y,)] * g[(x,)]


def test_cup_mismatch_rejected():
    mm = bh.minmax_braiding(2)
    f = bh.Cochain(1, ring())
    g = bh.Cochain(1, mod7())
    with pytest.raises(bh.BraidedSetError, match="coefficient mismatch"):
        bh.cup_product(mm, f, g)


def test_cup_associative():
    rng = random.Random(RNG_SEED)
    for name, bs in [("minmax:2", bh.minmax_braiding(2)), ("fact:C2", c2_trivial_factorization().braiding)]:
        for degrees in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1)]:
            f, g, h = (pr.seeded_cochain(bs, d, mod7(), rng) for d in degrees)
            lhs = bh.cup_product(bs, bh.cup_product(bs, f, g), h)
            rhs = bh.cup_product(bs, f, bh.cup_product(bs, g, h))
            assert lhs == rhs, (name, degrees)


def test_graded_leibniz():
    rng = random.Random(RNG_SEED)
    for name, bs in [("minmax:3", bh.minmax_braiding(3)), ("size2:maxmax", bh.size2_family("maxmax"))]:
        for p, q in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            f = pr.seeded_cochain(bs, p, mod7(), rng)
            g = pr.seeded_cochain(bs, q, mod7(), rng)
            lhs = bh.cochain_diff(bs, bh.cup_product(bs, f, g))
            a = bh.cup_product(bs, bh.cochain_diff(bs, f), g)
            b = bh.cup_product(bs, f, bh.cochain_diff(bs, g))
            sign = -1 if p % 2 else 1
            for w in product(range(bs.size), repeat=p + q + 1):
                assert lhs[w] == mod7().normalize(a[w] + sign * b[w]), (name, p, q)


def test_three_part_leibniz():
    rng = random.Random(RNG_SEED)
    for name, bs in [("minmax:2", bh.minmax_braiding(2)), ("size2:constant", bh.size2_family("constant"))]:
        for p, q in [(1, 1), (2, 1), (1, 2)]:
            f = pr.seeded_cochain(bs, p, mod7(), rng)
            g = pr.seeded_cochain(bs, q, mod7(), rng)
            fg = bh.cup_product(bs, f, g)
            assert pr.cochain_diff_left(bs, fg) == bh.cup_product(bs, pr.cochain_diff_left(bs, f), g), name
            assert pr.cochain_diff_right(bs, fg) == bh.cup_product(bs, f, pr.cochain_diff_right(bs, g)), name
            assert bh.cup_product(bs, pr.cochain_diff_right(bs, f), g) == bh.cup_product(
                bs, f, pr.cochain_diff_left(bs, g)
            ), name


def test_cup_split():
    rng = random.Random(RNG_SEED)
    mm = bh.minmax_braiding(3)
    for p, q in [(1, 1), (2, 1), (1, 2), (2, 0)]:
        f = pr.seeded_cochain(mm, p, ring(), rng)
        g = pr.seeded_cochain(mm, q, ring(), rng)
        left, right = bh.cup_left_right(mm, f, g)
        cup = bh.cup_product(mm, f, g)
        for w in product(range(3), repeat=p + q):
            assert left[w] + right[w] == cup[w]
        if q == 0:
            assert not right.values
    f = pr.seeded_cochain(mm, 1, ring(), rng)
    g = pr.seeded_cochain(mm, 1, ring(), rng)
    left, right = bh.cup_left_right(mm, f, g)
    for x, y in product(range(3), repeat=2):
        a, b = mm.pair(x, y)
        assert left[(x, y)] == f[(x,)] * g[(y,)]
        assert right[(x, y)] == -f[(a,)] * g[(b,)]


def test_split_symmetry_predicate():
    flip = bh.flip_braiding(2)
    rng = random.Random(5)
    f = pr.seeded_cochain(flip, 1, ring(), rng)
    # over the flip with trivial coefficients both first faces drop a letter
    # after a transparent crossing, so every cochain is split-symmetric
    assert pr.is_split_symmetric(flip, f)
    constant = bh.size2_family("constant")
    g = bh.Cochain(1, ring(), {(0,): 1})
    assert pr.is_split_symmetric(constant, g) == all(
        g[pr.face_word(constant, w, 1, "l")] == g[pr.face_word(constant, w, 1, "r")]
        for w in product(range(2), repeat=2)
    )


def test_circle_product_degree_formulas():
    rng = random.Random(RNG_SEED)
    mm = bh.minmax_braiding(3)
    f = pr.seeded_cochain(mm, 3, ring(), rng)
    g = pr.seeded_cochain(mm, 1, ring(), rng)
    fg = bh.circle_product(mm, f, g)
    gf = bh.circle_product(mm, g, f)
    for w in product(range(3), repeat=3):
        assert fg[w] == f[w] * sum(g[(x,)] for x in w)
        assert gf[w] == sum(g[(x,)] for x in bh.normal_form(mm, w)) * f[w]
    f1 = pr.seeded_cochain(mm, 1, ring(), rng)
    for x in range(3):
        assert bh.circle_product(mm, f1, g)[(x,)] == f1[(x,)] * g[(x,)]


def test_circle_with_cocycle_commutes():
    rng = random.Random(RNG_SEED)
    for name, bs in [("size2:maxmax", bh.size2_family("maxmax")), ("minmax:3", bh.minmax_braiding(3))]:
        for _ in range(10):
            f = pr.seeded_cochain(bs, 2, ring(), rng)
            g = pr.seeded_cochain(bs, 1, ring(), rng)
            if bh.cochain_diff(bs, g).values:
                continue
            assert bh.circle_product(bs, f, g) == bh.circle_product(bs, g, f), name


def test_circle_requires_trivial_ring(c2_fact):
    bs = c2_fact.braiding
    alg = bh.monoid_bimodule(c2_fact.monoid, bs=bs, embedding=list(c2_fact.elements))
    f = bh.Cochain(1, alg)
    with pytest.raises(bh.BraidedSetError, match="trivial commutative"):
        bh.circle_product(bs, f, f)


def test_homotopy_identity():
    rng = random.Random(RNG_SEED)
    cases = [
        ("identity:2", bh.identity_braiding(2)),
        ("size2:maxmax", bh.size2_family("maxmax")),
        ("fact:C2", c2_trivial_factorization().braiding),
    ]
    for name, bs in cases:
        for p, q in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
            f = pr.seeded_cochain(bs, p, mod7(), rng)
            g = pr.seeded_cochain(bs, q, mod7(), rng)
            rep = bh.check_homotopy_identity(bs, f, g)
            assert rep.holds, (name, p, q, rep.witness)
            # the experimental noncommutative form coincides over a
            # commutative ring
            assert bh.check_homotopy_identity(bs, f, g, experimental_flip=True).holds
    # degenerate constants
    mm = bh.minmax_braiding(2)
    c0 = bh.Cochain(0, ring(), {(): 3})
    assert bh.check_homotopy_identity(mm, c0, c0).holds


def test_homotopy_identity_degree_one_same_cochain():
    rng = random.Random(RNG_SEED)
    for name, bs in small_catalog():
        f = pr.seeded_cochain(bs, 1, ring(), rng)
        assert bh.check_homotopy_identity(bs, f, f).holds, name


def test_hirsch_failure_search():
    ring0 = ring()
    found_any = False
    for tag in ("maxmax", "constant"):
        rep = bh.check_hirsch_failure(bh.size2_family(tag), ring0)
        assert rep.holds, tag  # a violating triple exists
        assert rep.cocycle_ok, tag  # but never with a cocycle h
        found_any = True
        # closed-form defect check: lhs - rhs = -f(x2')g(x1') d2h(x1, x2)
        fv, gv, hv = rep.witness
        bs = bh.size2_family(tag)
        f = bh.Cochain(1, ring0, {(x,): fv[x] for x in range(2)})
        g = bh.Cochain(1, ring0, {(x,): gv[x] for x in range(2)})
        h = bh.Cochain(1, ring0, {(x,): hv[x] for x in range(2)})
        lhs, rhs = pr.hirsch_sides(bs, f, g, h)
        dh = bh.cochain_diff(bs, h)
        for w in product(range(2), repeat=2):
            a, b = bs.pair(*w)
            assert lhs[w] - rhs[w] == -f[(a,)] * g[(b,)] * dh[w]
    assert found_any
    # minmax permutes each pair, so every h is a cocycle and no triple fails
    rep = bh.check_hirsch_failure(bh.minmax_braiding(2), ring0)
    assert not rep.holds and rep.cocycle_ok


def test_pre_lie_fails_even_for_constant_cocycle():
    ring0 = ring()
    rng = random.Random(RNG_SEED)
    for tag in ("maxmax", "constant", "left_zero"):
        bs = bh.size2_family(tag)
        h = bh.Cochain(1, ring0, {(x,): 1 for x in range(2)})  # constant cocycle
        assert not bh.cochain_diff(bs, h).values
        found = False
        for _ in range(200):
            p, q = rng.choice([(1, 2), (2, 2)])
            f = pr.seeded_cochain(bs, p, ring0, rng, span=3)
            g = pr.seeded_cochain(bs, q, ring0, rng, span=3)
            lhs, rhs = pr.pre_lie_sides(bs, f, g, h)
            if lhs != rhs:
                found = True
                break
        assert found, tag


def test_cochain_differential_preserves_critical_support(s3_fact):
    bs = s3_fact.braiding
    e = bs.pseudo_unit
    rng = random.Random(RNG_SEED)
    for deg in (1, 2):
        f = bh.Cochain(deg, ring())
        for w in bh.critical_basis(bs, deg, e):
            f[w] = rng.randrange(-3, 4)
        df = bh.cochain_diff(bs, f)
        assert pr.is_critical_cochain(bs, df, e)


def test_critical_cochains_closed_under_products(s3_fact):
    bs = s3_fact.braiding
    e = bs.pseudo_unit
    rng = random.Random(RNG_SEED)
    ring0 = ring()

    def critical_cochain(deg):
        f = bh.Cochain(deg, ring0)
        for w in bh.critical_basis(bs, deg, e):
            f[w] = rng.randrange(-3, 4)
        return f

    for p, q in [(1, 1), (1, 2), (2, 1)]:
        f, g = critical_cochain(p), critical_cochain(q)
        assert pr.is_critical_cochain(bs, f, e)
        cup = bh.cup_product(bs, f, g)
        circ = bh.circle_product(bs, f, g)
        assert pr.is_critical_cochain(bs, cup, e), (p, q)
        assert pr.is_critical_cochain(bs, circ, e), (p, q)


def test_symmetrizer_circle_defect_formula():
    # pulling monoid cochains back along the symmetrizer preserves cup
    # products but not circle products; for a 2-cochain F and 1-cochain G
    # the defect is exactly (pullback of F at sigma(x,y)) * dG(x,y)
    rng = random.Random(42)
    cases = [
        bh.minmax_braiding(2),
        bh.size2_family("maxmax"),
        bh.minmax_braiding(3),
        bh.trivial_factorization(bh.cyclic_group(2)).braiding,
    ]
    for bs in cases:
        n = bs.size
        letters = [(x,) for x in range(n)]
        G = {w: rng.randrange(-4, 5) for w in letters}
        F = {(a, b): rng.randrange(-4, 5) for a in letters for b in letters}

        def qs2_pullback(table):
            out = bh.Cochain(2, ring())
            for w in product(range(n), repeat=2):
                out[w] = sum(
                    c * table[((t[0],), (t[1],))]
                    for t, c in bh.quantum_symmetrizer(bs, w).items()
                )
            return out

        g1 = bh.Cochain(1, ring(), {(x,): G[(x,)] for x in range(n)})
        # monoid-side circle with a 1-cochain: F(a,b) (G(a) + G(b))
        circled = {key: F[key] * (G[key[0]] + G[key[1]]) for key in F}
        lhs = qs2_pullback(circled)
        braided = bh.circle_product(bs, qs2_pullback(F), g1)
        dg = bh.cochain_diff(bs, g1)
        for x, y in product(range(n), repeat=2):
            a, b = bs.pair(x, y)
            assert lhs[(x, y)] - braided[(x, y)] == F[((a,), (b,))] * dg[(x, y)], bs.name


def test_cochain_json_roundtrip():
    f = bh.Cochain(2, mod7(), {(0, 1): 3, (1, 1): 5})
    again = bh.Cochain.from_json(f.to_json())
    assert again == f
    g = bh.Cochain(0, ring(), {(): -2})
    assert bh.Cochain.from_json(g.to_json()) == g
