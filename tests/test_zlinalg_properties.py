"""Property tests of the Smith form against its own certificate."""

import pytest

import braidhom as bh

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entry = st.integers(-6, 6)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return bh.IntMatrix(rows, cols, data)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(int_matrices())
# a negative unit pivot above a zero row; a block the unit does not divide
@hypothesis.example(bh.IntMatrix.from_rows([[-1, 2, 0], [0, 0, 0], [3, -6, 4]]))
@hypothesis.example(bh.IntMatrix.from_rows([[2, 0], [0, 3]]))
@hypothesis.example(bh.IntMatrix(0, 4))
def test_invariant_factors_match_certified_smith_form(m):
    s = bh.smith_normal_form(m)
    assert s.U * m * s.V == s.S
    assert bh.invariant_factors(m) == s.factors
    assert len(s.factors) == bh.rational_rank(m)
    assert all(b % a == 0 for a, b in zip(s.factors, s.factors[1:]))
