"""Finite matrix-group generation and finite abelian group arithmetic.

The symmetry group of the embedded surface is generated by an explicit
pair of integer matrices in GL_2 x GL_4; closure, relations, commutator
subgroup and abelianization are computed by exact integer arithmetic.
One closure generates both the group and its commutator subgroup, and one
coset quotient and one bounded order loop serve both the matrix group and
the abstract quotients of its abelianization.
Element identity is exact matrix equality (not projective): the scalar -1
shows up as the commutator and must be counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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


@dataclass(frozen=True)
class FinMatGroup:
    elements: frozenset
    generators: tuple

    @property
    def order(self):
        return len(self.elements)

    def inverse(self, g):
        for h in self.elements:
            if pair_mul(g, h) == IDENTITY_PAIR:
                return h
        raise InvalidParameterError("element has no inverse in the group")

    def element_order(self, g):
        return _order_of(g, pair_mul, IDENTITY_PAIR, self.order)


def group_closure(gens, cap=512):
    """Breadth-first closure of the generated group under multiplication.

    Raises CapExceededError as soon as more than `cap` elements are found.
    """
    gens = tuple(gens)
    elements = {IDENTITY_PAIR}
    new = []

    def admit(x):
        if x not in elements:
            elements.add(x)
            new.append(x)
            if len(elements) > cap:
                raise CapExceededError("group closure exceeded cap %d" % cap)

    for g in sorted(set(gens)):
        admit(g)
    while new:
        frontier = sorted(new)
        new.clear()
        for g in frontier:
            for h in sorted(elements):
                admit(pair_mul(g, h))
                admit(pair_mul(h, g))
    return FinMatGroup(frozenset(elements), gens)


def relation_check(group):
    """Evaluate the dihedral relations on the two named generators."""
    if len(group.generators) != 2:
        raise InvalidParameterError("relation_check needs exactly two generators")
    s, t = group.generators
    st = pair_mul(s, t)
    st_inv = group.inverse(st) if st in group.elements else None
    conj = pair_mul(pair_mul(t, st), t)
    return {
        "sigma^2=1": pair_mul(s, s) == IDENTITY_PAIR,
        "tau^2=1": pair_mul(t, t) == IDENTITY_PAIR,
        "ord(sigma*tau)=4": group.element_order(st) == 4,
        "tau*(sigma*tau)*tau=(sigma*tau)^-1": st_inv is not None and conj == st_inv,
    }


def commutator_structure(group):
    """(order of the commutator subgroup, abelianization invariants)."""
    elems = sorted(group.elements)
    comms = set()
    for g in elems:
        gi = group.inverse(g)
        for h in elems:
            hi = group.inverse(h)
            comms.add(pair_mul(pair_mul(g, h), pair_mul(gi, hi)))
    derived = group_closure(comms, cap=group.order).elements
    quotient_elems, quotient_mul, quotient_id = _quotient(elems, pair_mul, derived)
    invariants = _abelian_invariants(quotient_elems, quotient_mul, quotient_id)
    return len(derived), FinAbGroup(invariants)


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


def _order_of(x, mul, identity, bound):
    """Least k >= 1 with x^k = identity; InvalidParameterError past `bound`."""
    k = 1
    y = x
    while y != identity:
        if k == bound:
            raise InvalidParameterError("element order exceeds %d" % bound)
        y = mul(y, x)
        k += 1
    return k


def _abelian_invariants(elems, mul, identity):
    """Invariant factors d1 | d2 | ... of a small abelian group."""
    if len(elems) == 1:
        return ()
    orders = {x: _order_of(x, mul, identity, len(elems)) for x in elems}
    exponent = 1
    for o in orders.values():
        exponent = exponent * o // gcd(exponent, o)
    generator = next(x for x in elems if orders[x] == exponent)
    cyclic = set()
    y = identity
    for _ in range(exponent):
        cyclic.add(y)
        y = mul(y, generator)
    sub_elems, sub_mul, sub_id = _quotient(elems, mul, cyclic)
    return tuple(_abelian_invariants(sub_elems, sub_mul, sub_id)) + (exponent,)


# -- finite abelian groups ------------------------------------------------------


class FinAbGroup:
    """Finite abelian group given by cyclic invariants d1 | d2 | ... ."""

    def __init__(self, invariants):
        ds = [int(d) for d in invariants]
        if any(d <= 0 for d in ds):
            raise InvalidParameterError("cyclic invariants must be positive")
        # Smith-style normalization: pairwise (gcd, lcm) sweeps until the
        # divisibility chain holds, then drop trivial factors.
        changed = True
        while changed:
            changed = False
            ds.sort()
            for i in range(len(ds)):
                for j in range(i + 1, len(ds)):
                    if ds[j] % ds[i]:
                        g = gcd(ds[i], ds[j])
                        l = ds[i] * ds[j] // g
                        ds[i], ds[j] = g, l
                        changed = True
        self.invariants = tuple(d for d in sorted(ds) if d > 1)

    @property
    def order(self):
        out = 1
        for d in self.invariants:
            out *= d
        return out

    @property
    def exponent(self):
        return self.invariants[-1] if self.invariants else 1

    def __eq__(self, other):
        if isinstance(other, FinAbGroup):
            return self.invariants == other.invariants
        if isinstance(other, tuple):
            return self.invariants == FinAbGroup(other).invariants if other else not self.invariants
        return NotImplemented

    def __hash__(self):
        return hash(self.invariants)

    def __repr__(self):
        return "FinAbGroup%s" % (self.invariants,)


def tensor_square(self_l1, self_l3, mixed):
    """(L1 (x) L3)^2 = L1^2 + 2 (L1.L3) + L3^2."""
    return self_l1 + 2 * mixed + self_l3


def type_from_square(sq):
    """K-group of a type-(1, d) polarization with self-intersection 2d."""
    if sq <= 0 or sq % 2:
        raise InvalidParameterError("self-intersection must be a positive even integer")
    d = sq // 2
    return FinAbGroup((d, d))


def has_element_of_order(group, k):
    """True iff k divides the exponent of the group."""
    if k < 1:
        raise InvalidParameterError("order must be >= 1")
    return group.exponent % k == 0
