"""Slope stability of the rank-2 bundle with respect to O(m, n).

Stability is the sign of one integer linear form per destabilizer corner,
read off the Chow ring once.  The subsheaf-existence oracle is
deliberately three-valued: the vanishing facts and the shipped positive
instances are all the argument needs, and pairs the source material does
not decide stay "unknown".
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import chow
from .errors import InconsistentError, InvalidParameterError
from .poly import ParamPoly


class Polarization(namedtuple("Polarization", "m n")):
    """An ample class O(m, n): requires int m > 0 and n > 0."""

    __slots__ = ()

    def __new__(cls, m, n):
        _require_ints(m, n)
        if m <= 0 or n <= 0:
            raise InvalidParameterError("O(m,n) is ample only for m > 0, n > 0")
        return tuple.__new__(cls, (m, n))

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


def _require_ints(x, y):  # a float such as 0.1 is not the rational it shows
    if type(x) is not int or type(y) is not int:
        raise InvalidParameterError("expected ints, got %s" % ((x, y),))


# (p, q) with h^0(I_X(p, q)) != 0: the octic image, the degree-4 quadric
# pencil hypersurface, and the Serre-construction twist.
POSITIVE_INSTANCES = ((0, 8), (4, 2), (2, 4))


@lru_cache(maxsize=None)
def _slope_poly():
    # degree((a h1 + b h3).(m h1 + n h3)^3) = a n^3 + 3 b m n^2
    ring = chow.p1xp3()
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    m, n = ParamPoly.var("m"), ParamPoly.var("n")
    line = a * ring.gen("h1") + b * ring.gen("h3")
    pol = m * ring.gen("h1") + n * ring.gen("h3")
    return chow.degree(line * pol ** 3)


def slope_dot(line, pol):
    """L . H^3 for L = O(a, b) with int a, b and H = O(m, n), computed in
    the Chow ring, as a constant ParamPoly."""
    a, b = line
    _require_ints(a, b)
    m, n = pol
    return ParamPoly.const(_slope_poly().value({"a": a, "b": b, "m": m, "n": n}))


def subsheaf_status(p, q):
    """Does X lie on a hypersurface of bidegree (p, q)? -> 'yes'/'no'/'unknown'.

    The 'no' clauses: (i) p < 0 or q < 2; (ii) p = 0 and q < 8;
    (iii) q = 2 and p <= 2.  'yes' when q >= 8 with p >= 0, or when (p, q)
    dominates a shipped positive instance componentwise.
    """
    if p < 0 or q < 2:
        return "no"
    if p == 0 and q < 8:
        return "no"
    if q == 2 and p <= 2:
        return "no"
    if q >= 8 and p >= 0:
        return "yes"
    if any(p >= p0 and q >= q0 for p0, q0 in POSITIVE_INSTANCES):
        return "yes"
    return "unknown"


@lru_cache(maxsize=None)
def destabilizer_corners():
    """Slope-maximal corners of the regions where O(a,b) -> E may be nonzero.

    A nonzero map forces a hypersurface of bidegree (2-a, 4-b) through X,
    so subsheaf_status(2-a, 4-b) must not be 'no'.  The corners are the
    maximal elements of that set, found column by column from a = 2 down:
    p >= 0 and q >= 2 give a <= 2 and b <= 2, q >= 8 is always 'yes' so no
    column's top lies below b = -4, and the scan stops at the first column
    reaching b = 2 (at the latest a = -2, from the instance (4, 2)).  Slope
    is strictly increasing in a and b for any positive polarization.
    """
    corners = []
    a, best = 2, -5  # -5: below every column's top
    while best < 2:
        b = next(b for b in range(2, -5, -1) if subsheaf_status(2 - a, 4 - b) != "no")
        if b > best:
            corners.append((a, b))
            best = b
        a -= 1
    return tuple(corners)


@lru_cache(maxsize=None)
def gap_forms():
    """(u, v) for each destabilizer corner c, with slope(c) - slope(1, 2)
    = n^2 (u n + v m); InconsistentError unless that holds with int u, v."""
    m, n = ParamPoly.var("m"), ParamPoly.var("n")
    half = _slope_poly().subs({"a": 1, "b": 2})  # half of det E = O(2,4)
    forms = []
    for a, b in destabilizer_corners():
        gap = _slope_poly().subs({"a": a, "b": b}) - half
        u, v = gap.coefficient((("n", 3),)), gap.coefficient((("m", 1), ("n", 2)))
        if gap != n * n * (u * n + v * m) or u.denominator != 1 or v.denominator != 1:
            raise InconsistentError("slope gap %s at %s is not n^2 (u n + v m)" % (gap, (a, b)))
        forms.append((int(u), int(v)))
    return tuple(forms)


def stability_decide(pol):
    """'stable', 'semistable_not_stable' or 'unstable' w.r.t. O(m, n): the
    sign of the largest gap form at (m, n)."""
    m, n = pol
    worst = max(u * n + v * m for u, v in gap_forms())
    return "stable" if worst < 0 else "semistable_not_stable" if worst == 0 else "unstable"


def stable_ratio():
    """The r with E stable for O(m, n) exactly when n < r*m, over all
    m, n > 0 (None: no form bounds it).  A form with u <= 0 and v < 0, or
    u < 0 = v, is negative on the whole quadrant, one with u > 0 > v below
    its ray n = (-v/u) m; any other raises InconsistentError."""
    forms = gap_forms()
    if not all(v < 0 or (v == 0 and u < 0) for u, v in forms):
        raise InconsistentError("gap forms %s are not each negative below a ray" % (forms,))
    return min((Fraction(-v, u) for u, v in forms if u > 0), default=None)
