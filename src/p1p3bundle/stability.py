"""Slope stability of the rank-2 bundle with respect to O(m, n).

The slope L.H^3 = n^2 (u a n + v b m) of L = O(a, b) with respect to
H = O(m, n) is read off the Chow ring once as the int pair (u, v), and
stability is the sign of one integer linear form per destabilizer corner,
which follows from (u, v) and det E, read off c1(E); a query then runs on
ints alone.  The subsheaf-existence oracle is deliberately three-valued:
the vanishing facts and the shipped positive instances are all the
argument needs, and pairs the source material does not decide stay
"unknown".  Only a corner the oracle answers 'yes' for witnesses a
destabilizing subsheaf.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import chow
from .errors import InconsistentError, InvalidParameterError, require_ints
from .poly import ParamPoly


class Polarization(namedtuple("Polarization", "m n")):
    """An ample class O(m, n): requires int m > 0 and n > 0."""

    __slots__ = ()

    def __new__(cls, m, n):
        if type(m) is int and type(n) is int and m > 0 and n > 0:
            return tuple.__new__(cls, (m, n))
        require_ints(m, n)
        raise InvalidParameterError("O(m,n) is ample only for m > 0, n > 0")

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


# (p, q) with h^0(I_X(p, q)) != 0 beyond the q >= 8 clause (the octic
# image): the degree-4 quadric pencil hypersurface and the Serre-construction
# twist.  Paper data that no destabilizer corner of E reaches.
POSITIVE_INSTANCES = ((4, 2), (2, 4))


@lru_cache(maxsize=None)
def _slope_poly():
    # degree((a h1 + b h3).(m h1 + n h3)^3) = a n^3 + 3 b m n^2
    ring = chow.p1xp3()
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    m, n = ParamPoly.var("m"), ParamPoly.var("n")
    line = a * ring.gen("h1") + b * ring.gen("h3")
    pol = m * ring.gen("h1") + n * ring.gen("h3")
    return chow.degree(line * pol ** 3)


@lru_cache(maxsize=None)
def _slope_form():
    """(u, v) with `_slope_poly()` = u a n^3 + v b m n^2, read off once;
    InconsistentError unless it has that shape with int u and v."""
    slope = _slope_poly()
    u = slope.coefficient((("a", 1), ("n", 3)))
    v = slope.coefficient((("b", 1), ("m", 1), ("n", 2)))
    a, b, m, n = (ParamPoly.var(x) for x in "abmn")
    if slope != n * n * (u * a * n + v * b * m) or not u.__class__ is v.__class__ is int:
        raise InconsistentError("slope %s is not u a n^3 + v b m n^2 with int u, v" % slope)
    return u, v


def slope_dot(line, pol):
    """L . H^3 for L = O(a, b) with int a, b and H = O(m, n), as a constant
    ParamPoly: n^2 (u a n + v b m) with the (u, v) of the Chow ring."""
    a, b = line
    require_ints(a, b)
    m, n = pol
    u, v = _slope_form()
    return ParamPoly.const(n * n * (u * a * n + v * b * m))


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
def _det():
    """det E = O(P, Q) with c1(E) = P h1 + Q h3: P and Q are the degrees of
    c1(E) on a vertical and on a horizontal line.  `chern` loads only here,
    so a slope query does not load it."""
    from . import chern

    c1 = chern.abelian_surface_bundle().c1
    P, Q = (c1.coeff(g).constant() for g in ("h1", "h3"))
    require_ints(P, Q)
    return P, Q


@lru_cache(maxsize=None)
def destabilizer_corners():
    """Slope-maximal corners of the regions where O(a,b) -> E may be nonzero.

    With det E = O(P, Q), a nonzero map forces a hypersurface of bidegree
    (P-a, Q-b) through X, so subsheaf_status(P-a, Q-b) must not be 'no'.
    The corners are the maximal elements of that set, found column by
    column from a = P down: the clauses p >= 0 and q >= 2 give a <= P and
    b <= Q-2, q >= 8 is always 'yes' so no column's top lies below b = Q-8,
    and the scan stops at the first column reaching b = Q-2 (at the latest
    a = P-3, since q = 2 is 'no' only for p <= 2).  Slope is strictly
    increasing in a and b for any positive polarization.
    """
    P, Q = _det()
    corners = []
    a, best = P, Q - 9  # below every column's top
    while best < Q - 2:
        b = next(b for b in range(Q - 2, Q - 9, -1) if subsheaf_status(P - a, Q - b) != "no")
        if b > best:
            corners.append((a, b))
            best = b
        a -= 1
    return tuple(corners)


@lru_cache(maxsize=None)
def gap_forms():
    """(u, v, witnessed) for each destabilizer corner c = (a, b), with 2
    slope(c) - slope(det E) = n^2 (u n + v m), and witnessed when the oracle
    answers 'yes' for c.  The slope is linear in the line, so (u, v) is
    (u0 (2a - P), v0 (2b - Q)) for the slope form (u0, v0) and det E = O(P, Q)."""
    u0, v0 = _slope_form()
    P, Q = _det()
    return tuple((u0 * (2 * a - P), v0 * (2 * b - Q), subsheaf_status(P - a, Q - b) == "yes")
                 for a, b in destabilizer_corners())


def stability_decide(pol):
    """'stable', 'semistable_not_stable' or 'unstable' w.r.t. O(m, n): the
    sign of the largest gap form at (m, n), each form evaluated once.  A verdict other than 'stable'
    needs a witnessed form attaining it, else InconsistentError."""
    m, n = pol
    worst = witnessed = None
    for u, v, w in gap_forms():
        gap = u * n + v * m
        if worst is None or gap > worst:
            worst, witnessed = gap, w
        elif gap == worst:
            witnessed = witnessed or w
    if worst < 0:
        return "stable"
    if witnessed:
        return "semistable_not_stable" if worst == 0 else "unstable"
    raise InconsistentError("no witnessed destabilizer attains the maximum at %s" % (pol,))


def stable_ratio():
    """The r with E stable for O(m, n) exactly when n < r*m, over all
    m, n > 0 (None: no form bounds it).  A form with u <= 0 and v < 0, or
    u < 0 = v, is negative on the whole quadrant, one with u > 0 > v below
    its ray n = (-v/u) m; any other raises InconsistentError, and so does a
    lowest ray that no witnessed form attains."""
    forms = gap_forms()
    if not all(v < 0 or (v == 0 and u < 0) for u, v, _ in forms):
        raise InconsistentError("gap forms %s are not each negative below a ray" % (forms,))
    # a witnessed form sorts first among those on the same ray
    ratio, unwitnessed = min(((Fraction(-v, u), not w) for u, v, w in forms if u > 0),
                             default=(None, False))
    if unwitnessed:
        raise InconsistentError("no witnessed destabilizer lies on the ray n = %s m" % ratio)
    return ratio
