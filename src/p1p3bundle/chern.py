"""Bundle symbols and the Riemann-Roch toolkit.

A BundleSymbol is the (rank, Chern classes) shadow of a vector bundle; the
rank may be an int or a formal ParamPoly.  The calculus is the universal
one (Fulton, Intersection Theory, Ex. 3.2.2-3.2.5), the same on every ring
and for every rank: twisting by a line bundle, Whitney sums and
complements, the Chern character by Newton's identities, the Todd class of
a ring from the Chern classes of its tangent bundle, Euler characteristics
via Hirzebruch-Riemann-Roch, and the Grothendieck-Riemann-Roch pushforward
along the projection P1xP1 -> P1.  A symbol restricts to a subvariety by
pulling its Chern classes back along `chow.pullback`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import chow
from .errors import DegreeMismatchError, InvalidParameterError, RingMismatchError


class BundleSymbol:
    """(rank, c1, c2, ...) abstraction of a vector bundle on a shipped ring."""

    def __init__(self, ring, rank, chern_classes=()):
        self.ring = ring
        self.rank = chow._scalar(rank)  # a number, or a ParamPoly only when formal
        cs = list(chern_classes)
        while len(cs) < ring.dimension:
            cs.append(ring.zero())
        for k, c in enumerate(cs, start=1):
            if c.ring is not ring:
                raise RingMismatchError("Chern class on the wrong ring")
            if not c.is_homogeneous(k):
                raise DegreeMismatchError("c%d is not homogeneous of degree %d" % (k, k))
        self.cs = tuple(cs)

    @property
    def c1(self):
        return self.cs[0]

    @property
    def c2(self):
        return self.cs[1] if len(self.cs) >= 2 else self.ring.zero()

    def c(self, k):
        if k == 0:
            return self.ring.one()
        return self.cs[k - 1] if k <= len(self.cs) else self.ring.zero()

    def total_chern(self):
        total = self.ring.one()
        for c in self.cs:
            total = total + c
        return total

    def __eq__(self, other):
        if not isinstance(other, BundleSymbol):
            return NotImplemented
        return self.ring is other.ring and self.rank == other.rank and self.cs == other.cs

    def __repr__(self):
        return "BundleSymbol(rank=%s, c=%s)" % (self.rank, self.total_chern())


def line_bundle(c1):
    """Rank-1 symbol with the given first Chern class."""
    return BundleSymbol(c1.ring, 1, [c1])


def serre_bundle(det, locus):
    """Rank-2 symbol of a Serre-construction bundle: c1 = det, c2 = locus."""
    return BundleSymbol(det.ring, 2, [det, locus])


def abelian_surface_bundle():
    """The bundle E on P1xP3: c1 = 2h1 + 4h3, c2 = 8h1h3 + 6h3^2."""
    P = chow.p1xp3()
    h1, h3 = P.gen("h1"), P.gen("h3")
    return serre_bundle(2 * h1 + 4 * h3, 8 * h1 * h3 + 6 * h3 * h3)


def twist(bundle, line_class):
    """Tensor by a line bundle L with first Chern class `line_class`.

    c_k(E (x) L) = sum_i C(r - i, k - i) c_i(E) c1(L)^(k - i) for any rank r,
    with C(n, j) = n(n-1)...(n-j+1)/j! a polynomial in r, so formal ranks
    work too.
    """
    if line_class.ring is not bundle.ring:
        raise RingMismatchError("twist class on the wrong ring")
    if not line_class.is_homogeneous(1):
        raise DegreeMismatchError("twist class must have degree 1")
    ring, rank = bundle.ring, bundle.rank
    cs = [ring.zero() for _ in range(ring.dimension + 1)]
    for i in range(ring.dimension + 1):
        term, binom = bundle.c(i), 1  # c_i(E) c1(L)^j and C(rank - i, j)
        if term.is_zero():
            continue
        for j in range(ring.dimension + 1 - i):
            if j:
                binom = binom * (rank - i - j + 1) * Fraction(1, j)
                # C(n, j) = 0 only for n in {0, ..., j-1}, and then for every larger j
                if binom == 0:
                    break
                term = term * line_class
            cs[i + j] = cs[i + j] + (term if binom == 1 else term * binom)
    return BundleSymbol(ring, rank, cs[1:])


def direct_sum(*bundles):
    """Whitney sum: ranks add, total Chern classes multiply."""
    ring = bundles[0].ring
    rank = 0
    total = ring.one()
    for b in bundles:
        if b.ring is not ring:
            raise RingMismatchError("direct sum across different rings")
        rank = rank + b.rank
        total = total * b.total_chern()
    cs = [total.graded_part(k) for k in range(1, ring.dimension + 1)]
    return BundleSymbol(ring, rank, cs)


def whitney_complement(total, sub):
    """Solve c(sub) * c(Q) = c(total) for Q, degree by degree."""
    if total.ring is not sub.ring:
        raise RingMismatchError("whitney_complement across different rings")
    ring = total.ring
    q = [ring.one()]
    for k in range(1, ring.dimension + 1):
        qk = total.c(k)
        for i in range(1, k + 1):
            qk = qk - sub.c(i) * q[k - i]
        q.append(qk)
    return BundleSymbol(ring, total.rank - sub.rank, q[1:])


def restrict_bundle(bundle, images):
    """Pull a symbol back along chow.pullback(., images): the rank and
    c1, ..., c_dim of the target ring."""
    c1 = chow.pullback(bundle.c1, images)
    cs = [chow.pullback(c, images) for c in bundle.cs[1:c1.ring.dimension]]
    return BundleSymbol(c1.ring, bundle.rank, [c1] + cs)


def chern_character(bundle):
    """rank + sum_k p_k / k!, for any rank (formal ranks included).

    The power sums p_k of the Chern roots come from Newton's identities
    p_k = sum_{i<k} (-1)^(i-1) c_i p_(k-i) + (-1)^(k-1) k c_k.
    """
    ring = bundle.ring
    ch = ring.one() * bundle.rank
    p = [None]
    for k in range(1, ring.dimension + 1):
        pk = bundle.c(k) * ((-1) ** (k - 1) * k)
        for i in range(1, k):
            pk = pk + bundle.c(i) * p[k - i] * (-1) ** (i - 1)
        p.append(pk)
        ch = ch + pk * Fraction(1, factorial(k))
    return ch


@lru_cache(maxsize=None)
def todd(ring):
    """Todd class of a ring's tangent bundle, from ring.tangent_chern.

    The universal Todd polynomial through degree 4:
    1 + c1/2 + (c1^2 + c2)/12 + c1c2/24
      + (-c1^4 + 4c1^2c2 + c1c3 + 3c2^2 - c4)/720;
    terms above the ring's dimension vanish in the ring.
    """
    if ring.dimension > 4:
        raise InvalidParameterError("the Todd polynomial is implemented through degree 4")
    c1, c2, c3, c4 = (ring.tangent_chern.graded_part(k) for k in range(1, 5))
    return (
        ring.one()
        + c1 * Fraction(1, 2)
        + (c1 * c1 + c2) * Fraction(1, 12)
        + c1 * c2 * Fraction(1, 24)
        + (-(c1 ** 4) + 4 * c1 * c1 * c2 + c1 * c3 + 3 * c2 * c2 - c4) * Fraction(1, 720)
    )


def euler_characteristic(bundle):
    """chi via Hirzebruch-Riemann-Roch: degree(ch . td)."""
    return chow.degree(chern_character(bundle) * todd(bundle.ring))


def grr_pushforward(bundle):
    """Virtual pushforward along q: P1xP1 -> P1 killing h1.

    The relative tangent bundle of q is the pullback of T_P1 along the
    other projection (h -> h1), so ch(B).td(T_q) integrates over the fibers
    by reading off the h1-linear part: the constant coefficient is the
    virtual rank of q_!B, the h2 coefficient its virtual first Chern degree.
    """
    ring = chow.p1xp1()
    if bundle.ring is not ring:
        raise InvalidParameterError("grr_pushforward expects a bundle on P1xP1")
    relative_todd = chow.pullback(todd(chow.p1()), (ring.gen("h1"),))
    pushed = chern_character(bundle) * relative_todd
    return pushed.coeff("h1"), pushed.coeff("h1*h2")
