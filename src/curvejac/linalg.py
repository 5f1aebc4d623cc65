"""Exact rational linear algebra plus a floating complex companion path.

All matrices here are small and dense.  Rational entries are Python ints or
`fractions.Fraction` values (lowest terms, positive denominator), so every
exact operation is exact end to end.  Every matrix the commands eliminate
is in ints; an int row takes no Fraction work, neither in a matrix-vector
product nor in its reduction mod p, and `from_rows` keeps ints as they are.

`rank_exact` proves a rank from both sides.  Modulo a prime p that divides
no denominator, the rank of the reduced matrix (each row scaled to integers
by the lcm of its denominators, then reduced mod p) is a lower bound on the
rank over Q.  An upper bound is min(rows, cols), or cols - k when the
caller hands in k kernel witnesses that an exact matvec annihilates and
that have full rank k.  When the rank mod one of a few primes just below
2**61 meets the upper bound, that is the rank; otherwise it falls back to
the fraction-free elimination below.

The kernel and the rank's fallback go through a single fraction-free
elimination: each row is scaled to integers and pivoting follows Bareiss'
scheme, which keeps intermediate entries as minors of the input instead of
letting numerators explode.  The kernel's back-substitution is in integers
too, each basis vector's numerators over one running denominator, touches
only the entries that can be nonzero (its free column and the pivot columns
already solved), and the basis keeps just those integers (`KernelBasis`).

The complex path (`ComplexMatrix`, `rank_numeric`) serves only the
evaluation-form Jacobian at user-given points that are not rational
(`jacobian --form eval`); its rank counts the singular values above a
tolerance times the largest, in pure Python: Householder reflections bring
the matrix to bidiagonal form, and bisection on a Sturm count finds the
largest singular value and counts those above the threshold.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import DimensionError, InputError

__all__ = [
    "RationalMatrix",
    "ComplexMatrix",
    "KernelBasis",
    "parse_rational",
    "parse_int",
    "parse_size",
    "parse_list",
    "format_rational",
    "rank_exact",
    "kernel_exact",
    "rank_numeric",
]


# At most this many digits in the numerator and in the denominator.
MAX_RATIONAL_DIGITS = 2000
_RATIONAL = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")
_INT_BOUND = 10**MAX_RATIONAL_DIGITS

# Size limits of the input documents and options, checked before anything is
# built: n (ambient dimension), d (curve degree), e and --degree (form
# degree), --count (sample draws).
MAX_N = 8
MAX_D = 32
MAX_DEGREE = 12
MAX_COUNT = 1000


def parse_rational(s) -> Fraction:
    """Parse a 'p/q' (or plain 'p') string of decimal digits, p optionally
    signed with '-', or an integer, into an exact rational.  Each part has at
    most MAX_RATIONAL_DIGITS digits.  Floats, whose value is binary, and
    decimal points, exponents, '+', spaces and underscores are refused."""
    if type(s) is int:
        if abs(s) < _INT_BOUND:
            return Fraction(s)
    elif isinstance(s, str):
        match = _RATIONAL.fullmatch(s)
        if match and all(len(part or "") <= MAX_RATIONAL_DIGITS for part in match.groups()):
            try:
                return Fraction(s)
            except ZeroDivisionError as exc:
                raise InputError(f"invalid rational value {s!r}: zero denominator") from exc
    shown = repr(s) if len(repr(s)) <= 40 else repr(s)[:40] + "..."
    raise InputError(
        f"invalid rational value {shown}: expected a string 'p' or 'p/q' of at most "
        f"{MAX_RATIONAL_DIGITS} decimal digits each, p optionally signed with '-'"
    )


def parse_int(x, what: str) -> int:
    """A non-negative integer; a bool, float or string in its place is refused."""
    if type(x) is not int or x < 0:
        raise InputError(f"{what} must be a non-negative integer, got {x!r}")
    return x


def parse_size(x, what: str, limit: int) -> int:
    """parse_int, also refusing values above limit."""
    if parse_int(x, what) > limit:
        raise InputError(f"{what} must be at most {limit}, got {x}")
    return x


def parse_list(x, what: str) -> list:
    """A list; a string or any other scalar in its place is refused."""
    if not isinstance(x, list):
        raise InputError(f"{what} must be a list, got {x!r}")
    return x


def format_rational(x: Fraction) -> str:
    """Canonical 'p/q' string; the '/q' part is omitted when q = 1.

    Outputs may have far more digits than inputs (a kernel vector scaled to
    lead 1, a sampled member), so a part beyond the interpreter's cap on
    int-to-str digits goes through `Decimal`, whose conversion is exact and
    has no cap; below it `str` is the fast path.
    """
    try:
        return str(x)
    except ValueError:
        num, den = str(Decimal(x.numerator)), str(Decimal(x.denominator))
        return num if den == "1" else f"{num}/{den}"


def _scaled(xs: Sequence) -> tuple[int, list[int]]:
    """(den, ints): den the lcm of the denominators of the rationals xs,
    ints or Fractions, and ints = den * xs; integers pass as they are."""
    if set(map(type, xs)) <= {int}:
        return 1, list(xs)
    den = lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix over the rationals, entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[Fraction | int, ...]
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"matrix {self.rows}x{self.cols} needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        if self.row_labels is not None and len(self.row_labels) != self.rows:
            raise DimensionError("row_labels length does not match row count")
        if self.col_labels is not None and len(self.col_labels) != self.cols:
            raise DimensionError("col_labels length does not match column count")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], row_labels=None, col_labels=None):
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionError("cannot build a matrix from zero rows")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        entries = tuple(x if type(x) is int else Fraction(x) for r in rows for x in r)
        return cls(
            len(rows),
            ncols,
            entries,
            tuple(row_labels) if row_labels is not None else None,
            tuple(col_labels) if col_labels is not None else None,
        )

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def matvec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Exact product; each row sums integers over a common denominator
        (`_scaled`), so an integer row times an integer vector is an int
        and builds no Fraction."""
        if len(v) != self.cols:
            raise DimensionError("vector length does not match column count")
        vden, w = _scaled(v)
        out = []
        for i in range(self.rows):
            rden, row = _scaled(self.row(i))
            total = sum(map(operator.mul, row, w))
            out.append(total if rden * vden == 1 else Fraction(total, rden * vden))
        return tuple(out)

    def to_obj(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[format_rational(x) for x in self.row(i)] for i in range(self.rows)],
        }


@dataclass(frozen=True)
class ComplexMatrix:
    """Dense complex matrix for evaluation points outside the rationals,
    a tuple of rows of Python complex numbers."""

    rows: int
    cols: int
    data: tuple[tuple[complex, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[complex]]) -> "ComplexMatrix":
        data = tuple(tuple(complex(x) for x in r) for r in rows)
        if not data:
            raise DimensionError("cannot build a matrix from zero rows")
        if any(len(r) != len(data[0]) for r in data):
            raise DimensionError("ragged rows")
        return cls(len(data), len(data[0]), data)

    def to_obj(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in self.data],
        }


@dataclass(frozen=True)
class KernelBasis:
    """Basis of a right null space; vectors are nonzero and independent.

    Each vector is sparse and in integers, a pair (den, terms): den > 0 and
    terms the (column, numerator) pairs of its nonzero entries in column
    order, entry j being numerator / den.  The first numerator is den, so
    the vector's first nonzero entry is 1.
    """

    ambient_dim: int
    vectors: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def __post_init__(self):
        for _, terms in self.vectors:
            if not terms or not 0 <= terms[0][0] <= terms[-1][0] < self.ambient_dim:
                raise ValueError("kernel vectors must be nonzero, their columns in range")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def to_obj(self) -> dict:
        vectors = [["0"] * self.ambient_dim for _ in self.vectors]
        for v, (den, terms) in zip(vectors, self.vectors):
            for j, x in terms:
                v[j] = format_rational(Fraction(x, den))
        return {"ambient_dim": self.ambient_dim, "vectors": vectors}


def _cleared_int_rows(m: RationalMatrix) -> list[list[int]]:
    """Each row scaled to integers by the lcm of its denominators."""
    return [_scaled(m.row(i))[1] for i in range(m.rows)]


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination.

    Returns (echelon rows, pivot column indices).
    Pivots are chosen by largest absolute value in the current column, ties
    broken by lowest row index, so elimination traces are reproducible.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            v = abs(rows[i][c])
            if v and (best is None or v > abs(rows[best][c])):
                best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            val = rows[i][c]
            ri, rr = rows[i], rows[r]
            for j in range(c + 1, ncols):
                ri[j] = (piv * ri[j] - val * rr[j]) // prev
            ri[c] = 0
        prev = piv
        piv_cols.append(c)
        r += 1
    return rows, piv_cols


# Moduli of rank_exact's lower bound: primes just below 2**61.
_PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45)


def _rows_mod(m: RationalMatrix, p: int) -> list[list[int]] | None:
    """Each row scaled to integers by the lcm L of its denominators, reduced
    mod p; None when p divides some L.  Scaling a row by L, a unit mod p,
    keeps the rank mod p."""
    rows = []
    for i in range(m.rows):
        den, r = _scaled(m.row(i))
        if den % p == 0:
            return None
        rows.append([x % p for x in r])
    return rows


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over Z/p of rows reduced mod p, by elimination in place."""
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        head = [x * inv % p for x in rows[rank][c:]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i][c:] = [(x - f * y) % p for x, y in zip(rows[i][c:], head)]
        rank += 1
    return rank


def rank_exact(m: RationalMatrix, witnesses: Sequence[Sequence[Fraction]] = ()) -> int:
    """Exact rank over the rationals, certified from both sides.

    The rank mod a prime that divides no denominator is a lower bound.  The
    upper bound is min(rows, cols), or min(rows, cols - k) when the k
    witnesses all lie in the kernel (checked by exact matvec) and have full
    rank k; otherwise they are ignored.  The first of _PRIMES whose rank
    meets the upper bound decides; if none does, fraction-free elimination
    over the integers gives the rank.  A matrix with no nonzero entry has
    rank 0 at once.
    """
    if not any(m.entries):
        return 0
    bound = min(m.rows, m.cols)
    if (witnesses and all(not any(m.matvec(w)) for w in witnesses)
            and rank_exact(RationalMatrix.from_rows(witnesses)) == len(witnesses)):
        bound = min(bound, m.cols - len(witnesses))
    for p in _PRIMES:
        rows = _rows_mod(m, p)
        if rows is not None and _rank_mod(rows, p) == bound:
            return bound
    return len(_bareiss_echelon(_cleared_int_rows(m))[1])


def kernel_exact(m: RationalMatrix) -> KernelBasis:
    """Exact basis of the right null space, each vector sparse in integers
    (`KernelBasis`).

    Each basis vector is scaled so that its first nonzero entry is 1; vectors
    are ordered by their free column, so output is reproducible.  The vector
    of free column fc is 1 at fc and 0 at the other free columns.  Its pivot
    entries are solved from the last pivot row up, in integers: the vector
    keeps the numerators of its nonzero entries over one running
    denominator.  A row sums only over fc and those entries; the new entry
    is -sum / pivot, so with g = gcd(sum, pivot) the denominator takes the
    factor pivot / g, which multiplies the numerators already solved, and
    the new numerator is -sum / g.  At the end the numerators, divided by
    their gcd and signed so that the first is positive, are the vector over
    its first one.
    """
    ech, piv_cols = _bareiss_echelon(_cleared_int_rows(m))
    piv_set = set(piv_cols)
    vectors = []
    for fc in (c for c in range(m.cols) if c not in piv_set):
        solved = [(fc, 1)]
        for r in range(len(piv_cols) - 1, -1, -1):
            row, pc = ech[r], piv_cols[r]
            s = sum(row[j] * x for j, x in solved)
            if s:
                g = gcd(s, row[pc])
                q = row[pc] // g
                if q != 1:
                    solved = [(j, x * q) for j, x in solved]
                solved.append((pc, -s // g))
        solved.sort()
        g = gcd(*(x for _, x in solved)) * (1 if solved[0][1] > 0 else -1)
        vectors.append((solved[0][1] // g, tuple((j, x // g) for j, x in solved)))
    return KernelBasis(m.cols, tuple(vectors))


def _reflector(x: list[complex]) -> tuple[float, list[complex], float]:
    """Householder reflector H = I - tau u u^H, tau real, with H x = alpha e1;
    returns (|alpha|, u, tau), tau = 0 when x is zero.

    u and tau are computed from x scaled by the power of two 2**-e that
    brings its largest modulus into [1/2, 1), as LAPACK's zlarfg rescales:
    then norm (norm + |x0|), tau's denominator, lies in [1/4, 2 len(x)) and
    cannot underflow to 0, however small x is.  Scaling u by 2**-e and tau
    by 2**(2e) leaves H as it is.
    """
    big = max(map(abs, x))
    if not big:
        return 0.0, x, 0.0
    e = math.frexp(big)[1]
    x = [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in x]
    norm = math.hypot(*map(abs, x))
    a0 = abs(x[0])
    phase = x[0] / a0 if a0 else 1.0
    return math.ldexp(norm, e), [phase * (a0 + norm)] + x[1:], 1.0 / (norm * (norm + a0))


def _bidiagonal(m: ComplexMatrix) -> list[float]:
    """The Golub-Kahan bidiagonal form of m scaled by the power of two 2**-e
    that brings its largest entry part into [1/2, 1), as the moduli
    d0, e0, d1, e1, ..., d_{k-1} of its diagonal and superdiagonal
    interleaved, k = min(rows, cols); its singular values are m's, so
    scaled.

    Householder reflections from the left and the right alternate on the
    rows (the columns when m is wide), the working block shrinking by one
    row and one column per step (Golub and Kahan, SIAM J. Numer. Anal. 2,
    1965); each row takes both reflections of a step in one pass.
    """
    w = [list(r) for r in m.data] if m.rows >= m.cols else [list(c) for c in zip(*m.data)]
    big = max((max(abs(z.real), abs(z.imag)) for r in w for z in r), default=0.0)
    if not big:
        return [0.0] * (2 * len(w[0]) - 1)
    e = math.frexp(big)[1]
    w = [[complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in r] for r in w]
    out = []
    while True:
        # The left reflector takes the first column to alpha e1.
        dk, u, tau = _reflector([r[0] for r in w])
        out.append(dk)
        if len(w[0]) == 1:
            return out
        w = [r[1:] for r in w]
        cu = [tau * z.conjugate() for z in u]
        g = [sum(map(operator.mul, cu, col)) for col in zip(*w)]
        top = [x - u[0] * y for x, y in zip(w[0], g)]
        # The right reflector takes the rest of the top row to beta e1; a
        # row r below becomes (r - u_i g) H' = r - u_i g - (s_i tau') conj(v).
        ek, v, tau2 = _reflector([z.conjugate() for z in top])
        out.append(ek)
        cv = [z.conjugate() for z in v]
        gv = sum(map(operator.mul, g, v))
        rows = []
        for ui, r in zip(u[1:], w[1:]):
            s = tau2 * (sum(map(operator.mul, r, v)) - ui * gv)
            rows.append([x - ui * y - s * z for x, y, z in zip(r, g, cv)] if ui or s else r)
        w = rows


def _below(b: Sequence[float], x: float, pivmin: float) -> int:
    """Sturm count: the eigenvalues below x of the symmetric tridiagonal
    matrix with zero diagonal and off-diagonal b, whose eigenvalues are
    plus and minus the singular values of the bidiagonal b.  A pivot
    smaller than pivmin in modulus counts as -pivmin; x >= 0."""
    q = -max(x, pivmin)
    count = 1
    for bk in b:
        q = -x - bk * bk / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0
    return count


def _bisect(b: Sequence[float], k: int) -> float:
    """The k-th largest singular value of the bidiagonal b (k = 1, 2, ...),
    by bisection on the Sturm count until the bracket is as wide as a
    rounding of the largest."""
    n2 = len(b) + 1
    hi = max((x + y for x, y in zip([0.0, *b], [*b, 0.0])), default=0.0)
    pivmin = sys.float_info.min * max(1.0, hi * hi)
    lo, width = 0.0, sys.float_info.epsilon * hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        if n2 - _below(b, mid, pivmin) >= k:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _singular_values(m: ComplexMatrix) -> list[float]:
    """Singular values of m scaled as in `_bidiagonal`, in descending order,
    each by bisection to within a rounding of the largest (`_bisect`)."""
    b = _bidiagonal(m)
    return [_bisect(b, k) for k in range(1, (len(b) + 3) // 2)]


def rank_numeric(m: ComplexMatrix, tol: float = 1e-8) -> int:
    """Count singular values above tol times the largest one: the largest
    by `_bisect`, then one Sturm count (`_below`), pure Python."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if not all(cmath.isfinite(z) for row in m.data for z in row):
        raise ValueError("matrix has non-finite entries")
    b = _bidiagonal(m)
    top = _bisect(b, 1)
    if not top:
        return 0
    return len(b) + 1 - _below(b, tol * top, sys.float_info.min * max(1.0, top * top))
