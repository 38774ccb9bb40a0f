"""Exact integer linear algebra and graded bookkeeping.

Everything in this module is exact: Laurent polynomials over Z, integer
matrices, a sparse elimination of unit pivots, the diagonal of the Smith
normal form, and finitely generated abelian groups presented by integer
matrices.  A cokernel takes its relations as sparse rows, clears the +-1
pivots by the sparse elimination first (pivots taken by least Markowitz
cost, H. Markowitz, Management Sci. 3 (1957)), and takes the Smith form of
the core left over.  A determinant is fraction-free Bareiss elimination
(E. Bareiss, Math. Comp. 22 (1968)) of the matrix it is asked of; the
Alexander polynomial asks it of such a core.  No floating point is used
anywhere.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

__all__ = [
    "LaurentPolynomial",
    "BigradedDims",
    "IntegerMatrix",
    "AbelianGroup",
    "eliminate_pivots",
    "smith_normal_form",
    "cokernel",
    "is_square_free",
]


class LaurentPolynomial:
    """A Laurent polynomial in one variable with integer coefficients.

    Stored as a mapping exponent -> nonzero coefficient.  Instances are
    immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for exp, c in items:
            if not isinstance(exp, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be int")
            if c:
                acc[exp] = acc.get(exp, 0) + c
                if acc[exp] == 0:
                    del acc[exp]
        self._coeffs = acc

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # a constant equals its integer, so it must hash like it
        if self._coeffs.keys() <= {0}:
            return hash(self._coeffs.get(0, 0))
        return hash(frozenset(self._coeffs.items()))

    def __getitem__(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def __add__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
            if out[e] == 0:
                del out[e]
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p._coeffs = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p._coeffs = {e: -c for e, c in self._coeffs.items()}
        return p

    def __sub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPolynomial":
        return LaurentPolynomial({0: other}) - self

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
                if out[e] == 0:
                    del out[e]
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p._coeffs = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = LaurentPolynomial({0: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t**k."""
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p._coeffs = {e + k: c for e, c in self._coeffs.items()}
        return p

    def mirror(self) -> "LaurentPolynomial":
        """Substitute t -> t**-1."""
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p._coeffs = {-e: c for e, c in self._coeffs.items()}
        return p

    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self._coeffs)

    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self._coeffs)

    def evaluate(self, value: int | Fraction) -> int | Fraction:
        """Exact evaluation.  Negative exponents require a nonzero value."""
        total: int | Fraction = 0
        for e, c in self._coeffs.items():
            if e < 0:
                if value == 0:
                    raise ZeroDivisionError("t=0 with negative exponents")
                total += c * Fraction(1, 1) * Fraction(value) ** e
            else:
                total += c * value**e
        if isinstance(total, Fraction) and total.denominator == 1:
            return int(total)
        return total

    def exact_div(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Divide by a known divisor; raises if the division is not exact."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPolynomial()
        num = dict(self._coeffs)
        den = other._coeffs
        den_top = max(den)
        den_lead = den[den_top]
        # an exact quotient's lowest term times the divisor's is the dividend's
        low = min(num) - min(den)
        out: dict[int, int] = {}
        while num:
            top = max(num)
            lead = num[top]
            q, e = lead // den_lead, top - den_top
            if lead % den_lead != 0 or e < low:
                raise ValueError("inexact polynomial division")
            out[e] = out.get(e, 0) + q
            for de, dc in den.items():
                k = de + e
                num[k] = num.get(k, 0) - q * dc
                if num[k] == 0:
                    del num[k]
        return LaurentPolynomial(out)

    def format(self, var: str = "t") -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = var if e == 1 else f"{var}^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            parts.append(f"{sign} {body}")
        head = parts[0]
        head = head[2:] if head.startswith("+ ") else "-" + head[2:]
        return " ".join([head] + parts[1:])

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.format()!r})"


class BigradedDims:
    """Dimensions of a bigraded vector space, indexed by (q, u).

    Ranks are strictly positive; absent keys mean rank zero.  Used both for
    Khovanov homology tables and for the closed-formula generator.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = ()):
        acc: dict[tuple[int, int], int] = {}
        items = dims.items() if isinstance(dims, Mapping) else dims
        for key, rank in items:
            q, u = key
            if rank < 0:
                raise ValueError("ranks must be nonnegative")
            if rank:
                acc[(int(q), int(u))] = acc.get((q, u), 0) + rank
        self._dims = acc

    @property
    def dims(self) -> dict[tuple[int, int], int]:
        return dict(self._dims)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigradedDims):
            return NotImplemented
        return self._dims == other._dims

    def __hash__(self) -> int:
        return hash(frozenset(self._dims.items()))

    def __bool__(self) -> bool:
        return bool(self._dims)

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self._dims.get(key, 0)

    def __iter__(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(sorted(self._dims.items(), key=lambda kv: (kv[0][1], kv[0][0])))

    def __add__(self, other: "BigradedDims") -> "BigradedDims":
        out = dict(self._dims)
        for key, r in other._dims.items():
            out[key] = out.get(key, 0) + r
        return BigradedDims(out)

    def shift(self, dq: int, du: int) -> "BigradedDims":
        return BigradedDims({(q + dq, u + du): r for (q, u), r in self._dims.items()})

    def reflect(self) -> "BigradedDims":
        """Mirror rule (q, u) -> (-q, -u)."""
        return BigradedDims({(-q, -u): r for (q, u), r in self._dims.items()})

    def total_rank(self) -> int:
        return sum(self._dims.values())

    def diagonals(self) -> list[int]:
        """Sorted distinct values of q - 2u over the support."""
        return sorted({q - 2 * u for (q, u) in self._dims})

    def euler_poly(self) -> LaurentPolynomial:
        """Graded Euler characteristic sum (-1)^u q^q as a Laurent polynomial."""
        out: dict[int, int] = {}
        for (q, u), r in self._dims.items():
            out[q] = out.get(q, 0) + (-1) ** (u % 2) * r
        return LaurentPolynomial(out)

    def poincare(self) -> str:
        """Poincare polynomial in q and u, ordered by (u, q)."""
        if not self._dims:
            return "0"
        parts = []
        for (q, u), r in sorted(self._dims.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            factors = []
            if r != 1:
                factors.append(str(r))
            if q:
                factors.append("q" if q == 1 else f"q^{q}")
            if u:
                factors.append("u" if u == 1 else f"u^{u}")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BigradedDims({self.poincare()!r})"


class IntegerMatrix:
    """An exact integer matrix stored as dense rows.

    It holds the small cores that ``determinant`` and ``smith_normal_form``
    take; large sparse matrices stay {column: entry} rows.  Construction
    copies.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Iterable[int]]):
        rows = [list(map(int, row)) for row in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.rows = len(rows)
        self.cols = width
        self._data = rows

    @classmethod
    def _shaped(cls, data: list[list[int]], cols: int) -> "IntegerMatrix":
        out = cls(data)
        out.cols = cols  # a matrix without rows still has its columns
        return out

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._data[i][j]

    def to_lists(self) -> list[list[int]]:
        return [row[:] for row in self._data]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.cols == other.cols and self._data == other._data

    def __hash__(self) -> int:
        return hash(tuple(tuple(r) for r in self._data))

    def determinant(self) -> int:
        """Exact signed determinant by fraction-free Bareiss elimination.

        Every division is exact, so each entry stays an integer (a minor of
        the matrix).  The work is cubic in the size whatever the sparsity; a
        caller that needs the determinant only up to a unit, as
        ``polynomials.alexander`` does, shrinks a large sparse matrix with
        ``eliminate_pivots`` first.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        m = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = m[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = pivot
        return sign * m[n - 1][n - 1]

    def __repr__(self) -> str:
        return f"IntegerMatrix({self._data!r})"


def eliminate_pivots(rows: list[dict[int, int]], cols: int, unit_bits: int = 0) -> IntegerMatrix:
    """Sparse fraction-free elimination of unit pivots; returns the core left.

    ``unit_bits`` = b says that the entries are Laurent polynomials over Z
    evaluated at t = 2^b, so the pivots are the units +-2^(bk) = +-t^k of
    Z[t^+-1]; when b = 0 they are +-1 alone.

    M comes sparse: ``rows`` holds one {column: nonzero entry} dict per row
    over ``cols`` columns, edited in place, and each column keeps the set of
    rows it occupies.  Each step takes the unit p of least Markowitz cost
    (row nnz - 1) * (col nnz - 1), ties going to the least (row, column),
    and clears every other entry a of its column: the row becomes
    row - (a / p) * pivot_row when p divides a, else p * row - a * pivot_row.
    The pivot row and column then leave the matrix.  Dividing when it can
    keeps a row from collecting a factor p at every step: a +-1 pivot never
    scales, and on the Kronecker Fox minor of K_1000 the entries stay under
    13,000 bits, where scaling every row grew them to a million.  When b > 0
    each updated row is then shifted right by the largest multiple of b that
    divides all its entries: a scaled row would otherwise keep the spurious
    power of t the pivot brought in, and rows scaled by rows scaled before
    compound it without end.  A heap holds candidate pivots with a cost no
    larger than their current one: an entry is pushed again whenever its row
    or column may have shrunk, and a popped entry whose cost has grown is
    pushed back, so no step rescans the matrix.

    The core keeps the rows and columns that held no pivot, in their
    original order, and holds no unit.  For a square M its determinant is
    det(M) times a unit, +-t^K (K of either sign) or +-1 when b = 0.  When
    b = 0 no row is scaled, and the core presents the cokernel of M on
    ``cols`` less ``len(rows) - core.rows`` generators.
    """

    def is_unit(x: int) -> bool:
        x = abs(x)
        if not unit_bits:
            return x == 1
        return x & (x - 1) == 0 and (x.bit_length() - 1) % unit_bits == 0

    occupied: list[set[int] | None] = [set() for _ in range(cols)]
    heap: list[tuple[int, int, int]] = []

    def push(i: int, j: int) -> None:
        heapq.heappush(heap, ((len(rows[i]) - 1) * (len(occupied[j]) - 1), i, j))

    for i, row in enumerate(rows):
        for j in row:
            occupied[j].add(i)
    for i, row in enumerate(rows):
        for j, v in row.items():
            if is_unit(v):
                push(i, j)

    while heap:
        cost, r, c = heapq.heappop(heap)
        row = rows[r]
        p = row.get(c) if row is not None else None
        if p is None or not is_unit(p):
            continue  # stale: eliminated, cancelled or changed since pushed
        if (len(row) - 1) * (len(occupied[c]) - 1) != cost:
            push(r, c)
            continue
        rows[r] = None
        others = occupied[c]
        occupied[c] = None
        others.discard(r)
        # the columns that lose the pivot row; only they can lose a cancelled entry
        shrunk = [j for j in row if j != c]
        for j in shrunk:
            occupied[j].discard(r)
        for i in others:
            target = rows[i]
            a = target.pop(c)
            q, rem = divmod(a, p)
            if rem:
                q = a
                target = {j: p * x for j, x in target.items()}
                rows[i] = target
            for j, w in row.items():
                if j == c:
                    continue
                x = target.get(j, 0) - q * w
                if x:
                    if j not in target:
                        occupied[j].add(i)
                    target[j] = x
                elif j in target:
                    del target[j]
                    occupied[j].discard(i)
            if unit_bits and target:
                low = 0
                for x in target.values():
                    low |= x
                k = (low & -low).bit_length() - 1
                k -= k % unit_bits
                if k:
                    target = {j: x >> k for j, x in target.items()}
                    rows[i] = target
            for j, v in target.items():
                if is_unit(v):
                    push(i, j)
        for j in shrunk:
            for i in occupied[j]:
                if is_unit(rows[i][j]):
                    push(i, j)

    keep_cols = [j for j, occ in enumerate(occupied) if occ is not None]
    return IntegerMatrix._shaped(
        [[row.get(j, 0) for j in keep_cols] for row in rows if row is not None], len(keep_cols)
    )


def smith_normal_form(matrix: IntegerMatrix) -> tuple[int, ...]:
    """Diagonal d_1 | d_2 | ... >= 0 of the Smith normal form, min(rows, cols) long.

    It is reached by elementary integer row and column operations.  Pivoting
    selects a minimal-absolute-value nonzero entry, which keeps intermediate
    entries small at this scale.  A pivot is fixed only once it divides
    every entry of the trailing block, and every later operation stays
    inside that block, so the diagonal comes out as a divisibility chain in
    one pass.  Only the diagonal is kept: the transforms are not tracked.
    """
    m = matrix.to_lists()
    nrows, ncols = matrix.rows, matrix.cols

    def add_row(src: int, dst: int, factor: int) -> None:
        mr, ms = m[dst], m[src]
        for j in range(ncols):
            mr[j] += factor * ms[j]

    k = 0
    limit = min(nrows, ncols)
    while k < limit:
        # Locate a minimal-absolute-value nonzero pivot in the trailing block.
        # Re-selecting it on every pass bounds entry growth: one floor
        # reduction pass either clears the pivot cross exactly or leaves a
        # remainder strictly smaller than the pivot, which becomes the next
        # pivot.  |pivot| decreases monotonically, so the stage terminates.
        best = None
        for i in range(k, nrows):
            row = m[i]
            for j in range(k, ncols):
                val = row[j]
                if val:
                    if best is None or abs(val) < best[0]:
                        best = (abs(val), i, j)
        if best is None:
            break
        _, pi, pj = best
        m[k], m[pi] = m[pi], m[k]
        for row in m:
            row[k], row[pj] = row[pj], row[k]
        pivot = m[k][k]
        dirty = False
        for i in range(k + 1, nrows):
            q = m[i][k] // pivot
            if q:
                add_row(k, i, -q)
            if m[i][k]:
                dirty = True
        for j in range(k + 1, ncols):
            q = m[k][j] // pivot
            if q:
                for row in m:
                    row[j] -= q * row[k]
            if m[k][j]:
                dirty = True
        if dirty:
            continue
        # The cross is clear; absorb any trailing entry the pivot does not
        # divide, so the pivot ends up as the gcd of the whole block.
        off = next(
            (
                i
                for i in range(k + 1, nrows)
                for j in range(k + 1, ncols)
                if m[i][j] % pivot
            ),
            None,
        )
        if off is not None:
            add_row(off, k, 1)
            continue
        # d_k divides the trailing block and all later work stays in it, so d_k | d_{k+1}
        k += 1

    # each pivot is alone in its row, so negating the row is abs(); from a
    # list, because tuple(<generator>) resizes its tuple, and without a full
    # collection that leaves CPython's tuple free lists growing call by call
    return tuple([abs(m[i][i]) for i in range(limit)])


@dataclass(frozen=True, slots=True)
class AbelianGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``invariant_factors`` are the torsion coefficients > 1 with each dividing
    the next; ``free_rank`` counts Z summands.
    """

    invariant_factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self) -> None:
        for d in self.invariant_factors:
            if d <= 1:
                raise ValueError("invariant factors must exceed 1")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    def order(self) -> int:
        """Group order; raises for infinite groups."""
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return math.prod(self.invariant_factors)

    def is_square_free_decomposition(self) -> bool:
        """True iff the group is square-free as a product of cyclic groups.

        Because the invariant factors form a divisibility chain, it is enough
        to test the largest one.
        """
        if not self.invariant_factors:
            return True
        return is_square_free(self.invariant_factors[-1])

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def cokernel(rows: list[dict[int, int]], cols: int) -> AbelianGroup:
    """Cokernel of the presentation: ``cols`` columns index generators, rows give relations.

    The rows come sparse, one {column: nonzero entry} dict each, as
    ``eliminate_pivots`` takes them, and it consumes them.  A +-1 pivot kills
    its generator and its relation without changing the cokernel, so that
    elimination clears every one it can first and Smith normal form runs on
    the core that is left, whose columns are the generators left.
    """
    core = eliminate_pivots(rows, cols)
    diagonal = smith_normal_form(core)
    torsion = tuple([d for d in diagonal if d > 1])
    return AbelianGroup(torsion, core.cols - sum(1 for d in diagonal if d))


def is_square_free(n: int) -> bool:
    """True iff no prime square divides n.  Exact trial division."""
    n = abs(n)
    if n == 0:
        return False
    if n % 4 == 0:
        return False
    while n % 2 == 0:
        n //= 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        else:
            p += 2
    return True
