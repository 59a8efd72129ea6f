"""Exact linear algebra over the integers: Smith normal form, chain
complexes of finitely generated free Z-modules, homology, and induced
maps on homology.

Everything runs on Python's arbitrary-precision integers; intermediate
Smith-form entries are allowed to grow.  Pivoting picks the smallest
nonzero absolute value, which keeps growth tame at desk scale.

Homology comes from invariant factors alone: H_k is free of rank
rank C_k - rk d_k - rk d_{k+1} plus the non-unit invariant factors of
d_{k+1}, so it needs no kernel basis and no transforms.  The unimodular
transforms of `smith_normal_form` are computed only where a caller reads
them: induced maps on homology, lattice membership and R-quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braided import CheckReport


class DegreeError(IndexError):
    pass


class IntMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            self.data = [list(map(int, row)) for row in data]
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise ValueError("matrix data does not match declared shape")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_columns(cls, rows: int, cols: int, entries) -> "IntMatrix":
        """entries: dict (row, col) -> value, or iterable of (row, col,
        value) triples; repeated positions accumulate."""
        m = cls(rows, cols)
        if isinstance(entries, dict):
            for (r, c), v in entries.items():
                m.data[r][c] += v
        else:
            for r, c, v in entries:
                m.data[r][c] += v
        return m

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, list(map(list, zip(*self.data))) if self.data and self.cols else [[] for _ in range(self.cols)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = IntMatrix(self.rows, other.cols)
        odata = other.data
        for i, row in enumerate(self.data):
            acc = out.data[i]
            for k, a in enumerate(row):
                if a:
                    orow = odata[k]
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
        return out

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            [a + b for a, b in zip(self.data, other.data)],
        )

    def submatrix(self, rows, cols) -> "IntMatrix":
        rows = list(rows)
        cols = list(cols)
        return IntMatrix(len(rows), len(cols), [[self.data[i][j] for j in cols] for i in rows])

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": [v for row in self.data for v in row]}

    @classmethod
    def from_json(cls, data: dict) -> "IntMatrix":
        r, c = data["rows"], data["cols"]
        flat = data["entries"]
        if len(flat) != r * c:
            raise ValueError("entry count does not match shape")
        return cls(r, c, [flat[i * c : (i + 1) * c] for i in range(r)])

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def rational_rank(m: IntMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination; independent of
    the Smith-form machinery, used to cross-check betti numbers."""
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


@dataclass
class SmithForm:
    """U * M * V = S diagonal with a divisibility chain; Uinv and Vinv are
    the exact integer inverses accumulated from the elementary steps."""

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def factors(self) -> list[int]:
        n = min(self.S.rows, self.S.cols)
        return [self.S.data[i][i] for i in range(n) if self.S.data[i][i]]


def _xgcd(a: int, b: int):
    """g, x, y with x*a + y*b = g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _diagonalize(m: IntMatrix, transforms: bool):
    """Diagonalize by unimodular row/column transforms; the one Smith
    elimination loop.

    Returns the diagonalized rows and, with `transforms`, the rows of U, V,
    Uinv and Vinv (else None: no transform is allocated or updated).

    Each off-pivot entry is cleared in a single extended-gcd 2x2 step
    (never by repeated Euclidean subtraction, whose full-row updates make
    intermediate entries explode).
    """
    R, C = m.rows, m.cols
    A = [row[:] for row in m.data]
    if transforms:
        U = [[int(i == j) for j in range(R)] for i in range(R)]
        Ui = [[int(i == j) for j in range(R)] for i in range(R)]
        V = [[int(i == j) for j in range(C)] for i in range(C)]
        Vi = [[int(i == j) for j in range(C)] for i in range(C)]

    def row_add(i, j, q):  # row_i += q * row_j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        if transforms:
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
            for r in Ui:  # Uinv: col_j -= q * col_i
                if r[i]:
                    r[j] -= q * r[i]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        if transforms:
            U[i], U[j] = U[j], U[i]
            for r in Ui:
                r[i], r[j] = r[j], r[i]

    def row_neg(i):
        A[i] = [-v for v in A[i]]
        if transforms:
            U[i] = [-v for v in U[i]]
            for r in Ui:
                r[i] = -r[i]

    def row_pair(i, j, x, y, u, v):
        # rows (i, j) <- (x*row_i + y*row_j, u*row_i + v*row_j); xv - yu = 1
        A[i], A[j] = (
            [x * a + y * b for a, b in zip(A[i], A[j])],
            [u * a + v * b for a, b in zip(A[i], A[j])],
        )
        if transforms:
            U[i], U[j] = (
                [x * a + y * b for a, b in zip(U[i], U[j])],
                [u * a + v * b for a, b in zip(U[i], U[j])],
            )
            for r in Ui:  # inverse transform on columns: [[v, -y], [-u, x]]
                a, b = r[i], r[j]
                r[i], r[j] = v * a - u * b, -y * a + x * b

    def col_add(i, j, q):  # col_i += q * col_j
        for r in A:
            if r[j]:
                r[i] += q * r[j]
        if transforms:
            for r in V:
                if r[j]:
                    r[i] += q * r[j]
            Vi[j] = [a - q * b for a, b in zip(Vi[j], Vi[i])]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        if transforms:
            for r in V:
                r[i], r[j] = r[j], r[i]
            Vi[i], Vi[j] = Vi[j], Vi[i]

    def col_pair(i, j, x, y, u, v):
        # cols (i, j) <- (x*col_i + y*col_j, u*col_i + v*col_j); xv - yu = 1
        for r in A:
            a, b = r[i], r[j]
            r[i], r[j] = x * a + y * b, u * a + v * b
        if transforms:
            for r in V:
                a, b = r[i], r[j]
                r[i], r[j] = x * a + y * b, u * a + v * b
            Vi[i], Vi[j] = (
                [v * a - u * b for a, b in zip(Vi[i], Vi[j])],
                [-y * a + x * b for a, b in zip(Vi[i], Vi[j])],
            )

    t = 0
    limit = min(R, C)
    while t < limit:
        # smallest nonzero |entry| in the working submatrix as pivot
        best = None
        for i in range(t, R):
            row = A[i]
            for j in range(t, C):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(bi, t)
        if bj != t:
            col_swap(bj, t)
        while True:
            for i in range(t + 1, R):
                b = A[i][t]
                if not b:
                    continue
                a = A[t][t]
                if b % a == 0:
                    row_add(i, t, -(b // a))
                else:
                    g, x, y = _xgcd(a, b)
                    row_pair(t, i, x, y, -(b // g), a // g)
            col_dirty = False
            for j in range(t + 1, C):
                b = A[t][j]
                if not b:
                    continue
                a = A[t][t]
                if b % a == 0:
                    col_add(j, t, -(b // a))
                else:
                    g, x, y = _xgcd(a, b)
                    col_pair(t, j, x, y, -(b // g), a // g)
                    col_dirty = True  # mixing columns can repopulate column t
            if col_dirty or any(A[i][t] for i in range(t + 1, R)):
                continue
            # enforce divisibility of the remaining block by the pivot;
            # a unit divides everything, so a +-1 pivot needs no scan
            p = A[t][t]
            if abs(p) == 1:
                break
            stray = None
            for i in range(t + 1, R):
                row = A[i]
                for j in range(t + 1, C):
                    if row[j] % p:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            row_add(t, stray, 1)
        if A[t][t] < 0:
            row_neg(t)
        t += 1
    return A, ((U, V, Ui, Vi) if transforms else None)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """U * M * V = S with all four transforms (see `invariant_factors`
    when only the diagonal is needed)."""
    A, (U, V, Ui, Vi) = _diagonalize(m, True)
    R, C = m.rows, m.cols
    return SmithForm(
        IntMatrix(R, C, A),
        IntMatrix(R, R, U),
        IntMatrix(C, C, V),
        IntMatrix(R, R, Ui),
        IntMatrix(C, C, Vi),
    )


def invariant_factors(m: IntMatrix) -> list[int]:
    """The positive invariant factors d_1 | d_2 | ... of m, computed
    without transforms; equal to smith_normal_form(m).factors."""
    A, _ = _diagonalize(m, False)
    return [A[i][i] for i in range(min(m.rows, m.cols)) if A[i][i]]


# --- chain complexes -------------------------------------------------------

@dataclass
class AbelianGroupInvariants:
    """Isomorphism type of a finitely generated abelian group: free rank
    plus the nontrivial invariant factors d_1 | d_2 | ...

    With `field` set the group is a vector space over Z/field and betti
    is its dimension.
    """

    betti: int
    torsion: tuple[int, ...] = ()
    field: int | None = None

    def __post_init__(self):
        self.torsion = tuple(int(d) for d in self.torsion)

    def __str__(self) -> str:
        if self.field is not None:
            if self.betti == 0:
                return "0"
            if self.betti == 1:
                return f"Z/{self.field}"
            return f"(Z/{self.field})^{self.betti}"
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_dict(self) -> dict:
        out = {"betti": self.betti, "torsion": list(self.torsion)}
        if self.field is not None:
            out["field"] = self.field
        return out


@dataclass
class ChainComplex:
    """Graded free Z-modules with one boundary matrix per positive degree.

    Descending (default): diffs[k] maps degree k to degree k-1 and has
    shape ranks[k-1] x ranks[k].  With ascending=True the stored matrix
    diffs[k] maps degree k-1 to degree k instead (cochain orientation);
    homology() then computes cohomology at the requested degree.
    """

    ranks: list[int]
    diffs: dict[int, IntMatrix] = field(default_factory=dict)
    labels: list[list[str]] | None = None
    ascending: bool = False
    name: str = ""
    field_modulus: int | None = None

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, k: int) -> IntMatrix:
        if k in self.diffs:
            return self.diffs[k]
        if self.ascending:
            src = self.ranks[k - 1] if 0 <= k - 1 <= self.top else 0
            tgt = self.ranks[k] if 0 <= k <= self.top else 0
            return IntMatrix(tgt, src)
        src = self.ranks[k] if 0 <= k <= self.top else 0
        tgt = self.ranks[k - 1] if 0 <= k - 1 <= self.top else 0
        return IntMatrix(tgt, src)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ascending": self.ascending,
            "ranks": list(self.ranks),
            "labels": self.labels,
            "boundaries": {str(k): m.to_json() for k, m in sorted(self.diffs.items())},
        }


def verify_complex(c: ChainComplex) -> CheckReport:
    """d o d = 0 (mod p for field complexes), reporting the first nonzero
    product entry."""
    p = c.field_modulus
    for k in range(1, c.top + 1):
        if c.ascending:
            prod = c.boundary(k + 1) * c.boundary(k)
        else:
            prod = c.boundary(k) * c.boundary(k + 1)
        for i, row in enumerate(prod.data):
            for j, v in enumerate(row):
                if p is not None:
                    v %= p
                if v:
                    return CheckReport(
                        False, (k + 1, i, j), f"(d.d)[{i}][{j}] = {v} at degree {k + 1}"
                    )
    return CheckReport(True)


def _kernel_data(c: ChainComplex, k: int):
    """Smith data of the outgoing map at degree k plus the relation matrix
    of incoming boundaries expressed in the kernel basis."""
    if c.ascending:
        out = c.boundary(k + 1)
        inc = c.boundary(k)
    else:
        out = c.boundary(k)
        inc = c.boundary(k + 1)
    snf_out = smith_normal_form(out)
    r = snf_out.rank
    z = out.cols - r
    w = snf_out.Vinv * inc
    for i in range(r):
        if any(w.data[i]):
            raise ValueError("boundary image is not contained in the kernel (d.d != 0?)")
    relations = IntMatrix(z, inc.cols, w.data[r:])
    kernel_basis = snf_out.V.submatrix(range(out.cols), range(r, out.cols))
    return snf_out, z, relations, kernel_basis


def homology(c: ChainComplex, k: int) -> AbelianGroupInvariants:
    """H_k = ker(out) / im(in) from the invariant factors of the two
    boundaries alone: betti = rank C_k - rk out - rk in, and the torsion is
    the non-unit invariant factors of in (ker(out) is a direct summand of
    C_k, so im(in) has the same cokernel torsion in both).

    Raises ValueError when the ranks cannot come from a complex.  That is
    only a necessary condition for d.d = 0; `verify_complex` is the full
    check.
    """
    if not 0 <= k <= c.top:
        raise DegreeError(f"degree {k} outside [0, {c.top}]")
    if c.ascending:
        out, inc = c.boundary(k + 1), c.boundary(k)
    else:
        out, inc = c.boundary(k), c.boundary(k + 1)
    p = c.field_modulus
    if p is None:
        inc_factors = invariant_factors(inc)
        betti = out.cols - len(invariant_factors(out)) - len(inc_factors)
        torsion = tuple(d for d in inc_factors if d >= 2)
    else:
        betti = out.cols - rank_mod(out, p) - rank_mod(inc, p)
        torsion = ()
    if betti < 0:
        raise ValueError("boundary ranks exceed the module rank (d.d != 0?)")
    return AbelianGroupInvariants(betti, torsion, field=p)


def homology_all(c: ChainComplex, up_to: int | None = None) -> list[AbelianGroupInvariants]:
    top = c.top if up_to is None else min(up_to, c.top)
    return [homology(c, k) for k in range(top + 1)]


def shift_complex(c: ChainComplex, s: int) -> ChainComplex:
    """Reindex degrees k -> k+s (s >= 0), padding with zero modules."""
    ranks = [0] * s + list(c.ranks)
    diffs = {k + s: m for k, m in c.diffs.items()}
    return ChainComplex(ranks, diffs, ascending=c.ascending, name=f"{c.name}[{s}]")


def rank_mod(m: IntMatrix, p: int) -> int:
    """Rank over the field Z/p (p prime)."""
    a = [[v % p for v in row] for row in m.data]
    rank = 0
    r = 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        r += 1
        rank += 1
        if r == m.rows:
            break
    return rank


# --- chain maps ------------------------------------------------------------

@dataclass
class ChainMap:
    source: ChainComplex
    target: ChainComplex
    components: dict[int, IntMatrix]
    name: str = ""

    def component(self, k: int) -> IntMatrix:
        if k in self.components:
            return self.components[k]
        src = self.source.ranks[k] if 0 <= k <= self.source.top else 0
        tgt = self.target.ranks[k] if 0 <= k <= self.target.top else 0
        return IntMatrix(tgt, src)


def verify_chain_map(f: ChainMap) -> CheckReport:
    top = min(f.source.top, f.target.top)
    for k in range(1, top + 1):
        lhs = f.target.boundary(k) * f.component(k)
        rhs = f.component(k - 1) * f.source.boundary(k)
        if lhs != rhs:
            for i in range(lhs.rows):
                for j in range(lhs.cols):
                    if lhs.data[i][j] != rhs.data[i][j]:
                        return CheckReport(False, (k, i, j), "does not commute with boundaries")
    return CheckReport(True)


@dataclass
class InducedMap:
    degree: int
    source_group: AbelianGroupInvariants
    target_group: AbelianGroupInvariants
    matrix: IntMatrix  # in Smith coordinates of source and target homology
    isomorphism: bool


def induced_map_on_homology(f: ChainMap, k: int) -> InducedMap:
    """H_k(f) in Smith coordinates plus an isomorphism verdict.

    Uses that a surjection between isomorphic finitely generated abelian
    groups is automatically injective.
    """
    if f.source.field_modulus is not None or f.target.field_modulus is not None:
        raise ValueError("induced maps are computed over Z; complexes over Z/p are not supported")
    chk = verify_chain_map(f)
    if not chk.holds:
        raise ValueError(f"not a chain map: witness {chk.witness}")
    snf_s, z_s, rel_s, kb_s = _kernel_data(f.source, k)
    snf_t, z_t, rel_t, _ = _kernel_data(f.target, k)
    x = snf_t.Vinv * (f.component(k) * kb_s)
    r_t = snf_t.rank
    for i in range(r_t):
        if any(x.data[i]):
            raise ValueError("image of a cycle is not a cycle")
    fbar = IntMatrix(z_t, z_s, x.data[r_t:])
    snf_rel_s = smith_normal_form(rel_s)
    snf_rel_t = smith_normal_form(rel_t)
    src_group = AbelianGroupInvariants(
        z_s - snf_rel_s.rank, tuple(d for d in snf_rel_s.factors if d >= 2)
    )
    tgt_group = AbelianGroupInvariants(
        z_t - snf_rel_t.rank, tuple(d for d in snf_rel_t.factors if d >= 2)
    )
    surj_factors = invariant_factors(fbar.hstack(rel_t))
    surjective = len(surj_factors) == z_t and all(d == 1 for d in surj_factors)
    iso = surjective and src_group == tgt_group
    smith_matrix = snf_rel_t.U * (fbar * snf_rel_s.Uinv)
    return InducedMap(k, src_group, tgt_group, smith_matrix, iso)
