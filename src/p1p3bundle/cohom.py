"""Exact cohomology dimensions of line bundles, as integer tables.

One Bott table for O(a, b) on P1 x P^n (its one possibly nonzero entry,
the Kunneth product of Bott's numbers), read on P1xP3 and on
Sigma_0 = P1xP1, Serre duality checks, and a
long-exact-sequence dimension solver for short exact sheaf sequences with
one unknown slot, solved from the one exactness relation at each index.
Twists are ints; anything else, a bool or a Fraction included, raises
InvalidParameterError.
Euler characteristics computed from Chern classes (Hirzebruch-Riemann-Roch,
on P1xP3 and on the Hirzebruch surfaces alike) live in `chern`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import comb

from .errors import InconsistentError, InvalidParameterError, require_ints


class CohomTable(tuple):
    """h^0..h^n of a sheaf on an n-fold, as a tuple of nonnegative ints."""

    __slots__ = ()

    def __new__(cls, dims):
        self = tuple.__new__(cls, dims)
        if self and min(self) < 0:
            raise InvalidParameterError("cohomology dimensions must be nonnegative")
        return self

    @property
    def chi(self):
        return sum((-1) ** i * d for i, d in enumerate(self))

    def reversed(self):
        return CohomTable(self[::-1])


def _bott(n, a, b):
    """Cohomology table of O(a, b) on P1 x P^n, for int a and b.

    By Bott, O(a) on P1 has h^0 = a + 1 (a >= 0) or h^1 = -a - 1
    (a <= -2) and nothing else, and O(b) on P^n has h^0 = C(b + n, n)
    (b >= 0) or h^n = C(-b - 1, n) (b <= -n - 1); by Kunneth the table's one
    possibly nonzero entry is h^(i+j), their product, and its entries are
    nonnegative by construction.
    """
    require_ints(a, b)
    dims = [0] * (n + 2)
    if a >= 0:
        i, x = 0, a + 1
    elif a <= -2:
        i, x = 1, -a - 1
    else:
        return tuple.__new__(CohomTable, dims)
    if b >= 0:
        j, y = 0, comb(b + n, n)
    elif b <= -n - 1:
        j, y = n, comb(-b - 1, n)
    else:
        return tuple.__new__(CohomTable, dims)
    dims[i + j] = x * y
    return tuple.__new__(CohomTable, dims)


def cohom_p1xp3(a, b):
    """Cohomology table of O(a, b) on P1xP3, for int a and b."""
    return _bott(3, a, b)


def serre_dual_check(a, b):
    """Table of O(a,b) reversed must equal the table of O(-2-a, -4-b)."""
    return cohom_p1xp3(a, b).reversed() == cohom_p1xp3(-2 - a, -4 - b)


def intro_h1(a, b):
    """-(a+1) * C(b+3, 3), the closed form for h^1(O(a,b)) when a <= -2, b >= 0."""
    return -(a + 1) * comb(b + 3, 3)


def cohom_sigma0(alpha, beta):
    """Cohomology table of O(alpha C0 + beta f) on Sigma_0 = P1xP1."""
    return _bott(1, alpha, beta)


# -- long exact sequence solver -------------------------------------------------

# A known table entry may be None ("not pinned by the argument"); a whole
# unknown slot is None.  e_i denotes the rank of the connecting map
# H^i(C) -> H^{i+1}(A), with e_{-1} = e_top = 0.  Exactness at each index i
# is the one relation h^i(B) = (h^i(A) - e_{i-1}) + (h^i(C) - e_i), whose two
# brackets are the ranks of A->B and B->C; with the signs below it reads
# sum_k s_k * h^i(slot k) + e_{i-1} + e_i = 0, solved for the unknown slot.

_SIGNS = (-1, 1, -1)


class MapRankHint(namedtuple("MapRankHint", "kind index rank")):
    """Declared rank of one map in the long exact sequence.

    kind: "A->B" (induced, index i), "B->C" (induced, index i), or
    "connecting" (H^i(C) -> H^{i+1}(A)).
    """

    __slots__ = ()


# All feasible tables when the sequence does not pin a unique answer.
Underdetermined = namedtuple("Underdetermined", "tables")


def _minus(x, y):
    return None if x is None or y is None else x - y


def les_solve(a, b, c, hints=()):
    """Solve for the unknown slot of 0 -> A -> B -> C -> 0, given the tables
    a, b, c with exactly one None and MapRankHints `hints`.  Known tables of
    different lengths raise InvalidParameterError, as two unknowns do.

    Every choice of the connecting ranks e_i within their bounds gives one
    candidate table from the exactness relation; a candidate is feasible
    when every known map rank and every solved entry is >= 0 and every hint
    matches its map's rank.  Returns the unique feasible table (entries may
    be None where the data does not determine them), or an Underdetermined
    listing every feasible table.  Raises InconsistentError when there is
    none.
    """
    slots = [a, b, c]
    if slots.count(None) != 1:
        raise InvalidParameterError("exactly one slot must be unknown")
    lengths = {len(t) for t in slots if t is not None}
    if len(lengths) != 1:
        raise InvalidParameterError("the known tables must have the same length")
    (n,) = lengths
    k = slots.index(None)
    slots[k] = (None,) * n
    A, _, C = slots
    for h in hints:
        if h.kind not in ("A->B", "B->C", "connecting") or not 0 <= h.index < n:
            raise InvalidParameterError("no map %r at index %r" % (h.kind, h.index))

    # e_i <= h^i(C) and e_i <= h^{i+1}(A); an e_i neither bounds is unknown
    ranges = []
    for i in range(n - 1):
        bounds = [x for x in (C[i], A[i + 1]) if x is not None]
        ranges.append(range(min(bounds) + 1) if bounds else (None,))

    solutions = set()
    for evec in itertools.product(*ranges):
        e = (0,) + evec + (0,)  # e[i + 1] is e_i
        table, ranks = [], []
        for i in range(n):
            x = [t[i] for t in slots]
            if None not in x[:k] + x[k + 1:] + [e[i], e[i + 1]]:
                known = sum(s * v for s, v in zip(_SIGNS, x) if v is not None)
                x[k] = -_SIGNS[k] * (known + e[i] + e[i + 1])
            table.append(x[k])
            ranks.append({"A->B": _minus(x[0], e[i]), "B->C": _minus(x[2], e[i + 1]),
                          "connecting": e[i + 1]})
        values = table + [r for rs in ranks for r in rs.values()]
        if any(v is not None and v < 0 for v in values):
            continue
        if all(ranks[h.index][h.kind] in (None, h.rank) for h in hints):
            solutions.add(tuple(table))

    if not solutions:
        raise InconsistentError("no feasible long-exact-sequence assignment")
    if len(solutions) == 1:
        return solutions.pop()
    return Underdetermined(tuple(sorted(solutions, key=lambda t: tuple(-1 if x is None else x for x in t))))


# h^i(O_X) for an abelian surface X, padded to the ambient 4-fold:
# Hodge theory gives (1, 2, 1) on the surface itself.
ABELIAN_SURFACE_TABLE = CohomTable((1, 2, 1, 0, 0))
