"""Rational pencils of quadrics in P3.

A pencil is a 4x4 symmetric matrix of binary forms in (l, m) of one
degree d, each entry a tuple of d + 1 rational coefficients (index i
holds the coefficient of l^i*m^(d-i)).  Everything is computed from one
packed integer matrix per pencil.  M is the chart m = 1 cleared of
denominators, an integer polynomial matrix in l whose coefficients are at
most H in absolute value, and P = M(2^b) with b the bit length of
B + 1, B = 24*(d+1)^3*H^4.  A k x k minor of M is a sum of k! products of
k entries, so its coefficients are at most k!*(d+1)^(k-1)*H^k <= B; by
Cauchy's bound its roots, if it is nonzero, are below 1 + B < 2^b, and:

- the generic rank over the function field of the parameter line is the
  rank of P over Q (fraction-free Bareiss elimination on ints), and the
  pointwise rank is the same elimination on the matrix at the point;
- each 2x2 minor is P_ik*P_jn - P_in*P_jk read back as signed base-2^b
  digits (`poly`), exact because its coefficients are at most 2(d+1)H^2
  < 2^(b-1) in absolute value; M is symmetric, so 21 of 36 are distinct.

From the minors of a rank-2 pencil come the rank-1 parameter locus
(distinct projective roots of their gcd, the root at infinity included:
a primitive gcd over Z, and deg g - deg gcd(g, g') distinct finite roots
of it; a pencil of rank <= 1 is rank <= 1 on the whole line) and the
family of singular lines of a rank-2 pencil (Plücker coordinates, the
Hodge dual of a row pair's minors).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import lcm
from operator import add

from .errors import (
    InvalidParameterError,
    RankMismatchError,
    RankTooHighError,
)
from .poly import (NUMBERS, _c_gcd, _c_root_count, _fraction, _int_rank, _pack,
                   _packing_shift, _signed_digits)

# Index pairs a < b of the 2x2 minors and of Plücker coordinates.  The
# complement of PAIRS[k] is PAIRS[5 - k]; _HODGE_SIGNS[k] is the sign of the
# permutation (a, b, c, d) that lists PAIRS[k] and then its complement.
PAIRS = tuple(combinations(range(4), 2))
# The index pairs i <= j of the ten distinct entries of a symmetric 4x4
# matrix, in the order of the entry lines of a pencil file.
UPPER = tuple(combinations_with_replacement(range(4), 2))
_HODGE_SIGNS = tuple((-1) ** sum(x > y for x, y in combinations(ab + cd, 2))
                     for ab, cd in zip(PAIRS, reversed(PAIRS)))


class WholeLine:
    """Sentinel: the rank-1 locus is all of the parameter line."""

    def __repr__(self):
        return "WholeLine"


WHOLE_LINE = WholeLine()


def symmetric(upper):
    """The symmetric 4x4 matrix, a list of rows, whose entries i <= j are
    the ten items of `upper` in UPPER order."""
    m = [[None] * 4 for _ in range(4)]
    for (i, j), x in zip(UPPER, upper):
        m[i][j] = m[j][i] = x
    return m


def _form_mul(f, g):
    """The product of two binary forms given as coefficient tuples."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return tuple(out)


class QuadricPencil:
    """4x4 symmetric matrix of binary forms of degree d in (l, m), each a
    tuple of d + 1 coefficients (int or Fraction) with l^i*m^(d-i) at i."""

    def __init__(self, entries):
        rows = tuple([tuple([tuple(f) for f in row]) for row in entries])
        if len(rows) != 4 or any([len(r) != 4 for r in rows]):
            raise InvalidParameterError("pencil matrix must be 4x4")
        lengths = {len(f) for row in rows for f in row}
        if len(lengths) != 1 or 0 in lengths:
            raise InvalidParameterError("pencil entries must be nonempty tuples of one length")
        if any([rows[i][j] != rows[j][i] for i, j in PAIRS]):
            raise InvalidParameterError("pencil matrix must be symmetric")
        # the ten entries the rank code reads hold exact numbers
        if not {c.__class__ for i, j in UPPER for c in rows[i][j]}.issubset(NUMBERS):
            raise InvalidParameterError("a pencil coefficient must be an int or a Fraction")
        self.entries = rows
        self.degree = lengths.pop() - 1

    # -- constructors -----------------------------------------------------

    @staticmethod
    def linear(q0, q1):
        """The linear pencil l*Q0 + m*Q1 from two rational symmetric matrices."""
        return QuadricPencil([[(q1[i][j], q0[i][j]) for j in range(4)] for i in range(4)])

    @staticmethod
    def rank2_normal_form(a0, a1, a2):
        """The linear normal form of a rank-<=2 pencil: l*diag-block + m*diag(1,1,0,0)."""
        q1 = [[a0, a1, 0, 0], [a1, a2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        q0 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        return QuadricPencil.linear(q1, q0)

    @staticmethod
    def degree4_witness():
        """A degree-4 pencil of generic rank 2 with four rank-1 parameters.

        Built as s0(l,m) u u^T + s1(l,m) z z^T with u = (l,m,0,0),
        z = (0,0,l,m) and the coprime squarefree quadratic scales
        s0 = l*m, s1 = l^2 - m^2.  The rank drops to 1 exactly at the
        four roots of s0*s1 and the singular line moves with the
        parameter (kernel spanned by (m,-l,0,0) and (0,0,m,-l)).
        """
        l, m, zero = (0, 1), (1, 0), (0, 0)
        u = (l, m, zero, zero)
        z = (zero, zero, l, m)
        s0, s1 = (0, 1, 0), (-1, 0, 1)
        return QuadricPencil([
            [tuple(map(add, _form_mul(s0, _form_mul(u[i], u[j])),
                       _form_mul(s1, _form_mul(z[i], z[j])))) for j in range(4)]
            for i in range(4)
        ])

    # -- rank analysis ------------------------------------------------------

    @cached_property
    def _z_upper(self):
        # The chart m = 1: coefficient i of an entry is that of l^i.  The ten
        # distinct entries, in UPPER order, are scaled by the lcm of their
        # denominators, which keeps the matrix symmetric (all ints: scale 1,
        # and they are used as they are); a nonzero rational scale keeps the
        # rank, the kernel, and the roots and the infinity multiplicity of
        # every minor.  (The lcm takes a list: unpacking a generator there
        # made the peak RSS grow with every pencil on CPython 3.11.)
        upper = [self.entries[i][j] for i, j in UPPER]
        if all([type(c) is int for f in upper for c in f]):
            return upper
        ratios = [[c.as_integer_ratio() for c in f] for f in upper]
        scale = lcm(*[d for f in ratios for _, d in f])
        return [[n * (scale // d) for n, d in f] for f in ratios]

    @cached_property
    def _z_matrix(self):
        return symmetric(self._z_upper)

    @cached_property
    def _packed(self):
        # (P, b): P = M(2^b), each distinct entry packed once (M is symmetric)
        upper = self._z_upper
        height = max([abs(c) for f in upper for c in f])
        shift = _packing_shift(height, self.degree + 1, 4)
        return symmetric([_pack(f, shift) for f in upper]), shift

    @cached_property
    def _rank(self):
        return _int_rank(self._packed[0])

    @cached_property
    def _minors(self):
        # minors[I][J]: the 2x2 minor on rows PAIRS[I] and columns PAIRS[J],
        # an integer coefficient list in l; minors[J][I] is the same list
        p, shift = self._packed
        minors = [[None] * 6 for _ in range(6)]
        for I, (i, j) in enumerate(PAIRS):
            for J in range(I, 6):
                k, n = PAIRS[J]
                minors[I][J] = minors[J][I] = _signed_digits(
                    p[i][k] * p[j][n] - p[i][n] * p[j][k], shift)
        return minors

    def generic_rank(self):
        """Rank over the function field of the line: the rank of the packed
        matrix P over Q (computed once per pencil)."""
        return self._rank

    def rank_at(self, l0, m0):
        """Exact rank of the quadric at the parameter point (l0, m0), given
        as ints or Fractions (anything else raises InvalidParameterError).

        The point is scaled by the lcm of its denominators to integers
        (a, b), the same projective point; each integer entry sum c_i l^i is
        read as the form sum c_i a^i b^(d-i), and the integer matrix goes to
        the elimination of `generic_rank`.
        """
        l0, m0 = _fraction(l0), _fraction(m0)
        if l0 == 0 and m0 == 0:
            raise InvalidParameterError("(0, 0) is not a point of the parameter line")
        scale = lcm(l0.denominator, m0.denominator)
        a, b = int(l0 * scale), int(m0 * scale)
        d = self.degree
        return _int_rank([[sum(c * a ** i * b ** (d - i) for i, c in enumerate(f)) for f in row]
                          for row in self._z_matrix])

    def rank1_parameter_count(self):
        """Number of parameter points where the rank drops to <= 1.

        Computed as the number of distinct projective roots of the gcd g of
        the nonzero 2x2 minors, the root at infinity (m = 0) included; g
        has deg g - deg gcd(g, g') distinct finite roots.
        Returns WHOLE_LINE when the generic rank is at most 1, which is
        exactly when every minor vanishes identically; no minor is then
        computed.
        """
        rank = self.generic_rank()
        if rank > 2:
            raise RankTooHighError("rank1_parameter_count needs generic rank <= 2")
        if rank <= 1:
            return WHOLE_LINE
        minors = [f for I, row in enumerate(self._minors) for f in row[I:] if f]
        g = minors[0]
        for f in minors[1:]:
            g = _c_gcd(g, f)
        count = _c_root_count(g)
        # the homogeneous minors have degree 2d and l-degrees len(f) - 1, so
        # m = 0 is a root of all of them when each l-degree is below 2d
        if max(len(f) for f in minors) <= 2 * self.degree:
            count += 1
        return count

    def singular_line_family(self):
        """(q, constant) for a pencil of generic rank 2.

        The row space over the function field is spanned by any row pair
        with a nonzero minor, and its Plücker coordinates are that pair's
        six minors p.  The kernel, the singular line, is its orthogonal
        complement, with the Hodge dual coordinates q_ab = sign(a,b,c,d) p_cd
        (Hodge-Pedoe, Methods of Algebraic Geometry I, ch. VII), in `PAIRS`
        order, each an integer coefficient list in l (lowest degree first)
        on the chart m = 1.  constant is True iff the nonzero q_ab are
        rational multiples of one another, i.e. all quadrics share the same
        singular line.
        """
        if self.generic_rank() != 2:
            raise RankMismatchError("singular_line_family needs generic rank 2")
        p = next(row for row in self._minors if any(row))
        q = tuple(tuple(x * sign for x in f) for sign, f in zip(_HODGE_SIGNS, reversed(p)))
        ref = next(f for f in q if f)
        # f and ref are proportional over Q iff f*lead(ref) == ref*lead(f)
        constant = all([c * ref[-1] for c in f] == [c * f[-1] for c in ref] for f in q if f)
        return q, constant

