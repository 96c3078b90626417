"""Finite matrix-group generation and the structure of finite abelian groups.

The symmetry group of the embedded surface is generated by an explicit
pair of integer matrices in GL_2 x GL_4.  One breadth-first orbit routine,
driven by the generators, computes the group (the orbit of 1 under right
multiplication by them), each element's powers, order and inverse (the
orbit of 1 under x -> x*g) and the commutator subgroup (the normal closure
of the generator commutators).  The abelianization is one coset quotient
whose invariants split off the largest cyclic orbit and recurse.
Element identity is exact matrix equality (not projective): the scalar -1
shows up as the commutator and must be counted.  A finite abelian group
is given by its invariant factors d1 | d2 | ..., a tuple of ints with no
1s; the polarization kernels of Prop. 2.1 are such tuples, read from a
self-intersection number, which the caller computes in the Chow ring
(`chow`).
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .errors import CapExceededError, InvalidParameterError


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def pair_mul(g, h):
    return (_mat_mul(g[0], h[0]), _mat_mul(g[1], h[1]))


IDENTITY_PAIR = (_identity(2), _identity(4))

# generators of the symmetry group: a coordinate swap/cyclic shift and a
# sign-flip involution, acting simultaneously on P1 and P3 coordinates
SIGMA = (
    ((0, 1), (1, 0)),
    ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
)
TAU = (
    ((1, 0), (0, -1)),
    ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)),
)


def _orbit(start, moves, cap):
    """Everything reachable from `start` by the maps in `moves`, as a list in
    breadth-first order (so the orbit of 1 under x -> x*g is 1, g, g^2, ...).

    Raises CapExceededError as soon as more than `cap` elements are found.
    """
    out, seen = [start], {start}
    for x in out:  # out grows while it is walked: a breadth-first queue
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                out.append(y)
                if len(out) > cap:
                    raise CapExceededError("orbit exceeded cap %d" % cap)
    return out


def _powers(g, mul, identity, cap):
    """[1, g, ..., g^(k-1)] for g of order k <= cap; the last is g's inverse."""
    return _orbit(identity, (lambda x: mul(x, g),), cap)


class FinMatGroup(namedtuple("FinMatGroup", "elements generators")):
    __slots__ = ()

    @property
    def order(self):
        return len(self.elements)

    def element_order(self, g):
        """Size of g's cyclic orbit; CapExceededError past the group order."""
        return len(_powers(g, pair_mul, IDENTITY_PAIR, self.order))


def group_closure(gens, cap=512):
    """The group generated by `gens`, as the orbit of 1 under right
    multiplication by each; CapExceededError past `cap` elements."""
    gens = tuple(gens)
    moves = [lambda x, g=g: pair_mul(x, g) for g in gens]
    return FinMatGroup(frozenset(_orbit(IDENTITY_PAIR, moves, cap)), gens)


def relation_check(group):
    """Evaluate the dihedral relations on the two named generators."""
    if len(group.generators) != 2:
        raise InvalidParameterError("relation_check needs exactly two generators")
    s, t = group.generators
    st = pair_mul(s, t)
    conj = pair_mul(pair_mul(t, st), t)
    return {
        "sigma^2=1": pair_mul(s, s) == IDENTITY_PAIR,
        "tau^2=1": pair_mul(t, t) == IDENTITY_PAIR,
        "ord(sigma*tau)=4": group.element_order(st) == 4,
        "tau*(sigma*tau)*tau=(sigma*tau)^-1": pair_mul(conj, st) == IDENTITY_PAIR,
    }


def commutator_structure(group):
    """(order of the commutator subgroup, abelianization invariants); the
    subgroup is the normal closure of the generator commutators s^-1 t^-1 s t."""
    pairs = [(s, _powers(s, pair_mul, IDENTITY_PAIR, group.order)[-1]) for s in group.generators]
    commutators = [pair_mul(pair_mul(si, ti), pair_mul(s, t))
                   for k, (s, si) in enumerate(pairs) for t, ti in pairs[k + 1:]]
    moves = [lambda x, c=c: pair_mul(x, c) for c in commutators]
    moves += [lambda x, s=s, si=si: pair_mul(pair_mul(si, x), s) for s, si in pairs]
    derived = _orbit(IDENTITY_PAIR, moves, group.order)
    quotient_elems, quotient_mul, quotient_id = _quotient(group.elements, pair_mul, derived)
    invariants = _abelian_invariants(quotient_elems, quotient_mul, quotient_id)
    return len(derived), invariants


def _quotient(elems, mul, subgroup):
    """(cosets g*subgroup, their product, the identity coset); each coset
    multiplies through its first representative in `elems`."""
    cosets = {}
    for g in elems:
        cosets.setdefault(frozenset(mul(g, s) for s in subgroup), g)

    def qmul(c1, c2):
        rep = mul(cosets[c1], cosets[c2])
        return frozenset(mul(rep, s) for s in subgroup)

    return list(cosets), qmul, frozenset(subgroup)


def _abelian_invariants(elems, mul, identity):
    """Invariant factors d1 | d2 | ... of a small abelian group.

    An element of largest order (the exponent) generates a direct summand,
    so its cyclic orbit is split off by one quotient and the rest recurses.
    """
    if len(elems) == 1:
        return ()
    cyclic = max((_powers(x, mul, identity, len(elems)) for x in elems), key=len)
    sub_elems, sub_mul, sub_id = _quotient(elems, mul, cyclic)
    return _abelian_invariants(sub_elems, sub_mul, sub_id) + (len(cyclic),)


# -- polarization kernels ------------------------------------------------------


def type_from_square(sq):
    """Invariant factors (d, d) of the K-group of a type-(1, d) polarization
    with self-intersection 2d (() when d = 1)."""
    if sq <= 0 or sq % 2:
        raise InvalidParameterError("self-intersection must be a positive even integer")
    d = sq // 2
    return (d, d) if d > 1 else ()


def has_element_of_order(invariants, k):
    """True iff the group with these invariant factors has an element of
    order k, that is iff k divides their lcm (the exponent)."""
    if k < 1:
        raise InvalidParameterError("order must be >= 1")
    return lcm(*invariants) % k == 0
