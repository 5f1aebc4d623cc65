"""Exact linear algebra over the integers, plus a floating complex rank.

All matrices here are small and dense.  The one matrix type, `IntMatrix`,
holds Python ints: every matrix the commands eliminate is in integers.  A
rational matrix becomes one by positive scales: a row's scale keeps the
rank, the kernel and its lead-1 basis; a column's scale s_j keeps the rank
and the pivot columns, and takes each kernel vector v to the one with
entries v_j / s_j, which a caller maps back.  Every exact operation is
exact end to end, in ints.

`rank_exact` proves a rank from both sides.  Modulo a prime p, the rank of
the matrix reduced mod p (each row packed into one int) is a lower bound
on the rank over Q.  An upper bound is min(rows, cols), or cols - k when
that is lower and the caller hands in k integer kernel witnesses that an
exact matvec annihilates and that have full rank k.  When the rank mod one
of a few primes just below 2**61 meets the upper bound, that is the rank;
otherwise it falls back to the fraction-free elimination below.

The kernel and the rank's fallback go through a single fraction-free
elimination on a copy of the rows: pivoting follows Bareiss' scheme, which
keeps intermediate entries as minors of the input instead of letting
numerators explode.  The kernel eliminates only the nonzero columns: a
zero column is free, and its basis vector is the unit vector.  When the
nonzero columns have full rank mod a prime, they have it over Q, and
nothing is eliminated.  The back-substitution is in integers too, each
basis vector's numerators over one running denominator, touches only the
entries that can be nonzero (its free column and the pivot columns
already solved), and the basis keeps just those integers (`KernelBasis`).

`rank_numeric` serves only the evaluation-form Jacobian at user-given
points that are not rational (`jacobian --form eval`): it reads the rows of
complex values and counts the singular values above a tolerance times the
largest, in pure Python.  Householder reflections bring the rows to
bidiagonal form, and bisection on a Sturm count finds the largest singular
value and counts those above the threshold.

The module also holds what every other one shares to read and write
documents: the input parsers (a rational reads as a pair of ints) and size
limits, `format_rational`, and `_dump`, the one writer of the JSON.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
import re
import sys
from collections.abc import Sequence
from math import gcd

from .errors import DimensionError, InputError, Record

__all__ = [
    "IntMatrix",
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


def parse_rational(s) -> tuple[int, int]:
    """Parse a 'p/q' (or plain 'p') string of decimal digits, p optionally
    signed with '-', or an integer, into an exact rational: the pair (num,
    den) of ints in lowest terms, den > 0.  Each part has at most
    MAX_RATIONAL_DIGITS digits.  Floats, whose value is binary, and decimal
    points, exponents, '+', spaces and underscores are refused."""
    if type(s) is int:
        if abs(s) < _INT_BOUND:
            return s, 1
    elif isinstance(s, str):
        match = _RATIONAL.fullmatch(s)
        if match and all(len(part or "") <= MAX_RATIONAL_DIGITS for part in match.groups()):
            num, den = int(s[: match.end(1)]), int(match[2] or 1)
            if not den:
                raise InputError(f"invalid rational value {s!r}: zero denominator")
            g = gcd(num, den)
            return num // g, den // g
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


def format_rational(num: int, den: int = 1) -> str:
    """Canonical 'p/q' string of num / den, den > 0, in lowest terms; the
    '/q' part is omitted when q = 1.  A part beyond the interpreter's cap on
    int-to-str digits, which a `through` basis vector scaled to lead 1 can
    pass, goes through the `decimal` module, imported there only, whose
    exact conversion has no cap; below it `str` is the fast path."""
    g = gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        import decimal
        exact = decimal.Context(prec=decimal.MAX_PREC).create_decimal
        return str(exact(num)) if den == 1 else f"{exact(num)!s}/{exact(den)!s}"


def _float_text(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


_encode_str = json.encoder.encode_basestring_ascii
# How json's encoder writes a scalar of each type that `_dump` writes itself.
_SCALAR_TEXT = {str: _encode_str, int: int.__repr__, float: _float_text}


def _dump(obj) -> str:
    """The JSON document json.dumps(obj, indent=2, sort_keys=True) writes,
    byte for byte, and a newline.

    CPython's C encoder serves only documents without indent, so the
    containers are laid out here: a string, int or float, and a list of
    only strings, only ints or only floats, is written in one call
    (`_SCALAR_TEXT`); a list of strings that need no escape (printable
    ASCII without '"' or '\\', checked once on their join) is written in one
    join, each in quotes.  Any other scalar goes through json.dumps, and so
    does any other container (empty, of a subclass, or a dict with a key
    that is not a string), its newlines indented to its depth.
    """
    parts: list[str] = []
    _dump_into(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _dump_into(x, nl: str, parts: list[str]) -> None:
    """Append x's JSON text to parts, nl being a newline and the indent of
    x's depth."""
    inner = nl + "  "
    text = _SCALAR_TEXT.get(type(x))
    if text:
        parts.append(text(x))
    elif type(x) is dict and x and all(type(k) is str for k in x):
        sep = "{" + inner
        for k, v in sorted(x.items()):
            parts += (sep, _encode_str(k), ": ")
            _dump_into(v, inner, parts)
            sep = "," + inner
        parts += (nl, "}")
    elif type(x) in (list, tuple) and x:
        kinds = set(map(type, x))
        text = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if text is _encode_str:
            s = "".join(x)
            if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
                parts += ("[", inner, '"', ('",' + inner + '"').join(x), '"', nl, "]")
                return
        if text:
            parts += ("[", inner, ("," + inner).join(map(text, x)), nl, "]")
            return
        sep = "[" + inner
        for v in x:
            parts.append(sep)
            _dump_into(v, inner, parts)
            sep = "," + inner
        parts += (nl, "]")
    elif isinstance(x, (dict, list, tuple)):
        parts.append(json.dumps(x, indent=2, sort_keys=True).replace("\n", nl))
    else:
        parts.append(json.dumps(x))


class IntMatrix(Record):
    """Immutable dense matrix of Python ints, entries in row-major order; a
    rational, float or bool entry is refused."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def _check(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"matrix {self.rows}x{self.cols} needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        if not set(map(type, self.entries)) <= {int}:
            raise TypeError("matrix entries must be ints")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        if not rows:
            raise DimensionError("cannot build a matrix from zero rows")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def matvec(self, v: Sequence) -> tuple:
        """Exact product; an int vector gives ints."""
        if len(v) != self.cols:
            raise DimensionError("vector length does not match column count")
        return tuple(sum(map(operator.mul, self.row(i), v)) for i in range(self.rows))


class KernelBasis(Record):
    """Basis of a right null space; vectors are nonzero and independent.

    Each vector is sparse and in integers: the (column, numerator) pairs of
    its nonzero entries in column order, the vector in primitive integer
    form with a positive lead.  Printed, each entry is divided by the lead,
    so the vector's first nonzero entry is 1.
    """

    __slots__ = _fields = ("ambient_dim", "vectors")

    def _check(self):
        for terms in self.vectors:
            if not terms or not 0 <= terms[0][0] <= terms[-1][0] < self.ambient_dim:
                raise ValueError("kernel vectors must be nonzero, their columns in range")
            if terms[0][1] <= 0:
                raise ValueError("kernel vectors must have a positive lead")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def to_obj(self) -> dict:
        vectors = [["0"] * self.ambient_dim for _ in self.vectors]
        for v, terms in zip(vectors, self.vectors):
            lead = terms[0][1]
            for j, x in terms:
                v[j] = format_rational(x, lead)
        return {"ambient_dim": self.ambient_dim, "vectors": vectors}


def _bareiss_echelon(m: IntMatrix) -> tuple[list[list[int]], list[int]]:
    """Bareiss forward elimination in integers on a copy of m's rows.

    Returns (echelon rows, pivot column indices).
    Pivots are chosen by largest absolute value in the current column, ties
    broken by lowest row index, so elimination traces are reproducible.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
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


def _rows_mod(m: IntMatrix, p: int, size: int) -> list[int]:
    """Each row reduced mod p and packed into one int, column c in slot c of
    `size` bytes counted from the least significant end: the entries are
    written little-endian into one byte string, cut into rows."""
    data = b"".join([(x % p).to_bytes(size, "little") for x in m.entries])
    step = size * m.cols
    return [int.from_bytes(data[i * step : (i + 1) * step], "little") for i in range(m.rows)]


def _rank_mod(m: IntMatrix, p: int) -> int:
    """Rank of m over Z/p.

    Gaussian elimination on rows packed one int each by `_rows_mod`, with
    reduction mod p delayed (Dumas, Giorgi and Pernet, ACM TOMS 35(3),
    2008): the current column is always slot 0.  Each row's slot 0 is read
    mod p, v; the first row where v is nonzero is the pivot, and every other
    row drops slot 0 and adds (-v / pivot mod p) times the pivot row's other
    slots (the tail): one shift and one multiply-add per row and pivot, and
    only a shift when no other row has a nonzero v.  The tail is folded
    below 2**b in all its slots at once, b = bitlen(p) and p = 2**b - delta:
    each slot's bits from b up, times delta, are added to its low b bits,
    which keeps it mod p, until no slot has a bit from b up.

    Slots never borrow, being non-negative, and never carry: a slot starts
    below p and takes at most one addition below p * 2**b per pivot taken
    while its row and column remain, at most k - 1 of them for
    k = min(rows, cols), so it stays below k * 2**(2b), which a slot of
    ceil((2b + bitlen(k)) / 8) bytes holds.
    """
    ncols, b = m.cols, p.bit_length()
    size = (2 * b + min(m.rows, ncols).bit_length() + 7) // 8
    rows = _rows_mod(m, p, size)
    bits = 8 * size
    mask, delta = (1 << bits) - 1, (1 << b) - p
    # In every slot: its low b bits, and its bits from b up once shifted down by b.
    low = int.from_bytes(((1 << b) - 1).to_bytes(size, "big") * ncols, "big")
    high = int.from_bytes(((1 << (bits - b)) - 1).to_bytes(size, "big") * ncols, "big")
    rank = 0
    for _ in range(ncols):
        if not rows:
            break
        vals = [(r & mask) % p for r in rows]
        for piv, v in enumerate(vals):
            if v:
                break
        else:
            rows = [r >> bits for r in rows]
            continue
        rank += 1
        pivot, tail = vals.pop(piv), rows.pop(piv) >> bits
        if not any(vals):
            rows = [r >> bits for r in rows]
            continue
        minus_inv = p - pow(pivot, -1, p)
        while over := (tail >> b) & high:
            tail = (tail & low) + delta * over
        rows = [(r >> bits) + v * minus_inv % p * tail if v else r >> bits
                for r, v in zip(rows, vals)]
    return rank


def rank_exact(m: IntMatrix, witnesses: Sequence[Sequence[int]] = ()) -> int:
    """Exact rank over the rationals, certified from both sides.

    The rank mod a prime is a lower bound.  The upper bound is min(rows,
    cols), or cols - k when that is lower and the k integer witnesses all
    lie in the kernel (checked by exact matvec) and have full rank k;
    otherwise they are ignored, and when cols - k is not lower they are not
    even checked.  The first of _PRIMES whose rank meets the upper bound
    decides; if none does, fraction-free elimination over the integers
    gives the rank.  A matrix with no nonzero entry has
    rank 0 at once.

    The rank mod p eliminates rows packed one int each (`_rank_mod`), in
    slots of whole bytes that hold k * 2**(2 bitlen(p)), k = min(rows,
    cols): 16 bytes for k < 64 and the primes just below 2**61, 17 up to
    k = 255.
    """
    if not any(m.entries):
        return 0
    bound = min(m.rows, m.cols)
    if (m.cols - len(witnesses) < bound and all(not any(m.matvec(w)) for w in witnesses)
            and rank_exact(IntMatrix.from_rows(witnesses)) == len(witnesses)):
        bound = m.cols - len(witnesses)
    return _rank_at_most(m, bound)


def _rank_at_most(m: IntMatrix, bound: int) -> int:
    """The rank of m, given a proven upper bound on it: the bound when the
    rank mod one of _PRIMES meets it, else that of fraction-free
    elimination over the integers."""
    for p in _PRIMES:
        if _rank_mod(m, p) == bound:
            return bound
    return len(_bareiss_echelon(m)[1])


def kernel_exact(m: IntMatrix) -> KernelBasis:
    """Exact basis of the right null space, each vector sparse in integers
    (`KernelBasis`).

    Each basis vector is the one whose first nonzero entry is 1; vectors are
    ordered by their free column, so output is reproducible.  The vector of
    free column fc is 1 at fc and 0 at the other free columns.  A zero
    column j is free and its vector is e_j, ((j, 1),); the rest runs on the
    matrix of the other columns.  When those are at most as many as the
    rows and their rank mod _PRIMES[0] is their count, they are independent
    over Q too, so the zero columns are the only free ones and nothing is
    eliminated.  Otherwise Bareiss chooses the pivots as over all columns,
    so the basis is the same.  The pivot entries are solved from the last
    pivot row up, in integers: the vector keeps the numerators of its
    nonzero entries over one running denominator.  A row sums only over fc
    and those entries; the new entry is -sum / pivot, so with g = gcd(sum,
    pivot) the denominator takes the factor pivot / g, which multiplies the
    numerators already solved, and the new numerator is -sum / g.  At the
    end the numerators, divided by their gcd and signed so that the first
    is positive, are the vector in primitive form.
    """
    nz = [c for c in range(m.cols) if any(m.entries[c :: m.cols])]
    rows = [m.row(i) for i in range(m.rows)]
    compact = IntMatrix(m.rows, len(nz), tuple(r[c] for r in rows for c in nz))
    vectors = {c: ((c, 1),) for c in set(range(m.cols)).difference(nz)}
    if len(nz) <= m.rows and _rank_mod(compact, _PRIMES[0]) == len(nz):
        return KernelBasis(m.cols, tuple(vectors[c] for c in sorted(vectors)))
    ech, piv_cols = _bareiss_echelon(compact)
    piv_set = set(piv_cols)
    for fc in (c for c in range(len(nz)) if c not in piv_set):
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
        vectors[nz[fc]] = tuple((nz[j], x // g) for j, x in solved)
    return KernelBasis(m.cols, tuple(vectors[c] for c in sorted(vectors)))


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


def _bidiagonal(m: Sequence[Sequence[complex]]) -> list[float]:
    """The Golub-Kahan bidiagonal form of the matrix of rows m scaled by the power of two 2**-e
    that brings its largest entry part into [1/2, 1), as the moduli
    d0, e0, d1, e1, ..., d_{k-1} of its diagonal and superdiagonal
    interleaved, k = min(rows, cols); its singular values are m's, so
    scaled.

    Householder reflections from the left and the right alternate on the
    rows (the columns when m is wide), the working block shrinking by one
    row and one column per step (Golub and Kahan, SIAM J. Numer. Anal. 2,
    1965); each row takes both reflections of a step in one pass.
    """
    w = [list(r) for r in m] if len(m) >= len(m[0]) else [list(c) for c in zip(*m)]
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


def _singular_values(m: Sequence[Sequence[complex]]) -> list[float]:
    """Singular values of the matrix of rows m scaled as in `_bidiagonal`, in descending order,
    each by bisection to within a rounding of the largest (`_bisect`)."""
    b = _bidiagonal(m)
    return [_bisect(b, k) for k in range(1, (len(b) + 3) // 2)]


def rank_numeric(m: Sequence[Sequence[complex]], tol: float = 1e-8) -> int:
    """Count the singular values of the matrix of rows m above tol times the
    largest one: the largest by `_bisect`, then one Sturm count (`_below`),
    pure Python."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if not all(cmath.isfinite(z) for row in m for z in row):
        raise ValueError("matrix has non-finite entries")
    b = _bidiagonal(m)
    top = _bisect(b, 1)
    if not top:
        return 0
    return len(b) + 1 - _below(b, tol * top, sys.float_info.min * max(1.0, top * top))
