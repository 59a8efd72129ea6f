import random
from fractions import Fraction
from math import gcd

import pytest

import braidhom as bh
from braidhom.zlinalg import DegreeError, rank_mod

from conftest import s3_factorization, small_catalog


def det(m: bh.IntMatrix) -> Fraction:
    n = m.rows
    a = [[Fraction(v) for v in row] for row in m.data]
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [v - f * w for v, w in zip(a[i], a[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def snf_postconditions(m):
    s = bh.smith_normal_form(m)
    assert s.U * m * s.V == s.S
    assert s.U * s.Uinv == bh.IntMatrix.identity(m.rows)
    assert s.V * s.Vinv == bh.IntMatrix.identity(m.cols)
    if m.rows <= 6:
        assert abs(det(s.U)) == 1
    if m.cols <= 6:
        assert abs(det(s.V)) == 1
    diag = s.factors
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # off-diagonal entries vanish
    for i in range(s.S.rows):
        for j in range(s.S.cols):
            if i != j:
                assert s.S.data[i][j] == 0
    return s


def test_snf_zero_matrix():
    s = snf_postconditions(bh.IntMatrix(3, 2))
    assert s.factors == []


def test_snf_small_examples():
    # invariant factors from gcds of entries and of 2x2 minors
    m = bh.IntMatrix.from_rows([[2, 4], [6, 8]])
    s = snf_postconditions(m)
    d1 = gcd(gcd(2, 4), gcd(6, 8))
    minor = abs(2 * 8 - 4 * 6)
    assert s.factors == [d1, minor // d1] == [2, 4]
    s2 = snf_postconditions(bh.IntMatrix.from_rows([[6, 0], [0, 4]]))
    assert s2.factors == [2, 12]


def test_snf_matches_lattice_braiding_normal_form():
    lat = bh.divisor_lattice(12)
    lb = bh.lattice_braiding(lat)
    for a, b in [(6, 4), (4, 6), (2, 12), (6, 6)]:
        w = bh.normal_form(lb, (lat.labels.index(a), lat.labels.index(b)))
        diag = [lat.labels[i] for i in w]
        s = bh.smith_normal_form(bh.IntMatrix.from_rows([[a, 0], [0, b]]))
        assert s.factors == diag


def test_snf_random():
    rng = random.Random(20240901)
    for _ in range(40):
        r = rng.randrange(0, 5)
        c = rng.randrange(0, 5)
        m = bh.IntMatrix(r, c, [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)])
        s = snf_postconditions(m)
        assert len(s.factors) == bh.rational_rank(m)


def test_snf_dense_no_entry_explosion():
    # dense random matrices once blew intermediate entries past 10^6 bits
    # through Euclidean ping-pong; the xgcd clearing must stay tame
    rng = random.Random(99)
    for _ in range(10):
        r = rng.randrange(6, 9)
        c = rng.randrange(6, 11)
        m = bh.IntMatrix(r, c, [[rng.randrange(-50, 51) for _ in range(c)] for _ in range(r)])
        s = bh.smith_normal_form(m)
        assert s.U * m * s.V == s.S
        assert s.U * s.Uinv == bh.IntMatrix.identity(r)
        assert s.V * s.Vinv == bh.IntMatrix.identity(c)
        assert len(s.factors) == bh.rational_rank(m)
        for a, b in zip(s.factors, s.factors[1:]):
            assert b % a == 0
        worst = max(abs(v).bit_length() for mat in (s.U, s.V) for row in mat.data for v in row)
        assert worst < 5000


def test_empty_shapes():
    s = snf_postconditions(bh.IntMatrix(0, 3))
    assert s.S.rows == 0 and s.S.cols == 3
    snf_postconditions(bh.IntMatrix(3, 0))
    assert bh.IntMatrix(0, 3).transpose().rows == 3


def test_homology_times_two():
    # 0 <- Z <-(x2) Z <- 0
    cx = bh.ChainComplex([1, 1], {1: bh.IntMatrix.from_rows([[2]])})
    assert bh.verify_complex(cx).holds
    assert bh.homology(cx, 0) == bh.AbelianGroupInvariants(0, (2,))
    assert bh.homology(cx, 1) == bh.AbelianGroupInvariants(0)


def test_homology_zero_differentials():
    cx = bh.ChainComplex([2, 3, 1])
    for k, r in enumerate([2, 3, 1]):
        assert bh.homology(cx, k) == bh.AbelianGroupInvariants(r)
    with pytest.raises(DegreeError):
        bh.homology(cx, 5)


def test_homology_hand_built_bar_of_c2():
    # normalized bar of C2 with trivial Z coefficients: ranks all one,
    # d1 = 0, d2 = (2), d3 = 0, d4 = (2)
    diffs = {
        1: bh.IntMatrix.from_rows([[0]]),
        2: bh.IntMatrix.from_rows([[2]]),
        3: bh.IntMatrix.from_rows([[0]]),
        4: bh.IntMatrix.from_rows([[2]]),
    }
    cx = bh.ChainComplex([1, 1, 1, 1, 1], diffs)
    assert bh.verify_complex(cx).holds
    groups = [str(bh.homology(cx, k)) for k in range(4)]
    assert groups == ["Z", "Z/2", "0", "Z/2"]


def test_homology_rejects_ranks_no_complex_has():
    # d1 = d2 = (1) is no complex (d.d = 1): rank C_1 - rk d1 - rk d2 = -1
    cx = bh.ChainComplex(
        [1, 1, 1],
        {1: bh.IntMatrix.from_rows([[1]]), 2: bh.IntMatrix.from_rows([[1]])},
    )
    with pytest.raises(ValueError, match="d.d != 0"):
        bh.homology(cx, 1)


def test_homology_matches_kernel_and_relations_route():
    # the induced map of the identity computes the source group from a
    # kernel basis and the Smith form of the relations, with transforms
    cases = [
        (name, bh.critical_complex(bs, bh.trivial_bimodule(bs), 4, pseudo_unit=bs.pseudo_unit))
        for name, bs in small_catalog()
    ]
    s3 = s3_factorization().braiding
    cases.append(("fact:S3", bh.critical_complex(s3, bh.trivial_bimodule(s3), 6, pseudo_unit=s3.pseudo_unit)))
    for name, cx in cases:
        ident = bh.ChainMap(cx, cx, {k: bh.IntMatrix.identity(r) for k, r in enumerate(cx.ranks)})
        for k in range(cx.top):
            assert bh.homology(cx, k) == bh.induced_map_on_homology(ident, k).source_group, (name, k)


def test_verify_complex_failure():
    cx = bh.ChainComplex(
        [1, 1, 1],
        {1: bh.IntMatrix.from_rows([[1]]), 2: bh.IntMatrix.from_rows([[1]])},
    )
    rep = bh.verify_complex(cx)
    assert not rep.holds and rep.witness == (2, 0, 0)


def test_cochain_orientation():
    # ascending complex: 0 -> Z -> Z -> 0 with multiplication by 3
    cx = bh.ChainComplex([1, 1], {1: bh.IntMatrix.from_rows([[3]])}, ascending=True)
    assert bh.verify_complex(cx).holds
    assert str(bh.homology(cx, 0)) == "0"  # kernel of x3
    assert str(bh.homology(cx, 1)) == "Z/3"  # cokernel


def test_transposed_complex_still_a_complex():
    mm = bh.minmax_braiding(2)
    cx = bh.braided_chain_complex(mm, bh.trivial_bimodule(mm), 3)
    flipped = bh.ChainComplex(
        list(cx.ranks), {k: m.transpose() for k, m in cx.diffs.items()}, ascending=True
    )
    assert bh.verify_complex(flipped).holds


def test_shift_reindexes_homology():
    cx = bh.ChainComplex([1, 1], {1: bh.IntMatrix.from_rows([[2]])})
    from braidhom.zlinalg import shift_complex

    shifted = shift_complex(cx, 2)
    assert bh.homology(shifted, 2) == bh.homology(cx, 0)
    assert bh.homology(shifted, 3) == bh.homology(cx, 1)
    assert bh.homology(shifted, 0).betti == 0


def test_betti_matches_rational_rank():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = bh.IntMatrix(rows, cols, [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)])
        cx = bh.ChainComplex([rows, cols], {1: m})
        r = bh.rational_rank(m)
        assert bh.homology(cx, 1).betti == cols - r
        assert bh.homology(cx, 0).betti == rows - r


def test_rank_mod():
    m = bh.IntMatrix.from_rows([[2, 4], [6, 8]])
    assert rank_mod(m, 2) == 0
    assert rank_mod(m, 3) == 2
    assert rank_mod(m, 5) == 2


def test_induced_map_identity_and_doubling():
    cx = bh.ChainComplex([2, 2])
    ident = bh.ChainMap(cx, cx, {0: bh.IntMatrix.identity(2), 1: bh.IntMatrix.identity(2)})
    out = bh.induced_map_on_homology(ident, 1)
    assert out.isomorphism and out.matrix == bh.IntMatrix.identity(2)
    double = bh.ChainMap(
        cx, cx, {0: bh.IntMatrix.identity(2), 1: bh.IntMatrix.from_rows([[2, 0], [0, 1]])}
    )
    assert not bh.induced_map_on_homology(double, 1).isomorphism
    assert bh.induced_map_on_homology(double, 0).isomorphism


def test_induced_map_requires_chain_map():
    src = bh.ChainComplex([1, 1], {1: bh.IntMatrix.from_rows([[2]])})
    tgt = bh.ChainComplex([1, 1], {1: bh.IntMatrix.from_rows([[3]])})
    bad = bh.ChainMap(src, tgt, {0: bh.IntMatrix.identity(1), 1: bh.IntMatrix.identity(1)})
    assert not bh.verify_chain_map(bad).holds
    with pytest.raises(ValueError, match="not a chain map"):
        bh.induced_map_on_homology(bad, 0)


def test_matrix_json_roundtrip():
    m = bh.IntMatrix.from_rows([[1, -2, 3], [0, 5, 7]])
    assert bh.IntMatrix.from_json(m.to_json()) == m


def test_complex_json_exports():
    mm = bh.minmax_braiding(2)
    cx = bh.critical_complex(mm, bh.trivial_bimodule(mm), 3)
    data = cx.to_json()
    assert data["ranks"] == [1, 2, 1, 0]
    assert set(data["boundaries"]) == {"1", "2", "3"}


def test_induced_map_rejects_field_complexes():
    # the induced map is computed over Z, which is not the map over Z/p
    plain = bh.ChainComplex([2, 2])
    mod2 = bh.ChainComplex([2, 2], field_modulus=2)
    comps = {0: bh.IntMatrix.identity(2), 1: bh.IntMatrix.from_rows([[2, 0], [0, 1]])}
    for src, tgt in ((mod2, mod2), (mod2, plain), (plain, mod2)):
        with pytest.raises(ValueError, match="Z/p"):
            bh.induced_map_on_homology(bh.ChainMap(src, tgt, comps), 1)
