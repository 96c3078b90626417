"""Finite-dimensional graded intersection rings.

Every ring is built from one presentation rule: Q[g1, ..., gn], each
generator of degree 1, modulo one relation g^(top+1) = rewrite for each
generator.  The rewrite is 0 for P1, P3 and the products P1xP3 and
P1xP1; on the Hirzebruch surface Sigma_e it is C0^2 = -e C0.f.  Basis
monomials are keyed by exponent tuples, and the product table is filled
by adding exponents and applying the rewrites; display names such as
"h1*h3^2" (and "pt" for C0.f) appear only at the name-based surface.
Each ring also stores the total Chern class of its tangent bundle and
the canonical class K = -c1(T).  A coefficient of a cycle class is a
number (int or Fraction), and a ParamPoly only where a formal variable
lives, so formal twist parameters flow through unchanged while numeric
classes never build a polynomial.  Every
restriction (to a fiber, a line, P1 x line or a Hirzebruch surface) is
one `pullback`: the ring map fixed by the degree-1 images of the
generators.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add

from .errors import DegreeMismatchError, InvalidParameterError, RingMismatchError
from .poly import _ONE, NUMBERS, ParamPoly


def _monomial_name(gens, exps):
    parts = [g if e == 1 else "%s^%d" % (g, e) for g, e in zip(gens, exps) if e]
    return "*".join(parts) or "1"


class RingSpec:
    """Q[gens] modulo gens[k]^(tops[k] + 1) = rewrites[k], graded by degree.

    `rewrites` maps a generator index to a {exponent tuple: coefficient}
    of the same degree (a generator without an entry rewrites to 0), and
    `names` overrides the display names of some monomials.  The basis is
    the monomials with exponents up to the tops, ordered by (degree,
    name); the point class is the monomial of the tops.
    """

    def __init__(self, name, gens, tops, rewrites=None, names=None):
        self.name = name
        self.tops = tuple(tops)
        self.dimension = sum(self.tops)
        self.rewrites = rewrites or {}
        self.unit = (0,) * len(self.tops)
        monomials = list(itertools.product(*(range(t + 1) for t in self.tops)))
        display = {m: _monomial_name(gens, m) for m in monomials}
        display.update(names or {})
        monomials.sort(key=lambda m: (sum(m), display[m]))
        self.monomials = tuple(monomials)  # basis order, as exponent tuples
        self.basis = tuple(display[m] for m in monomials)
        self.index = {display[m]: m for m in monomials}  # display name -> exponents
        self.point = display[self.tops]
        self.table = {
            (m1, m2): self.reduce(tuple(map(add, m1, m2))) for m1 in monomials for m2 in monomials
        }
        self.canonical = None  # set with the tangent bundle, see _with_tangent
        self.tangent_chern = None

    def reduce(self, exps):
        """The monomial `exps` as {basis exponent tuple: coefficient}."""
        for k, (e, top) in enumerate(zip(exps, self.tops)):
            if e > top:
                rest = exps[:k] + (e - top - 1,) + exps[k + 1:]
                out = {}
                for m, c in self.rewrites.get(k, {}).items():
                    for b, cb in self.reduce(tuple(map(add, rest, m))).items():
                        out[b] = out.get(b, 0) + c * cb
                return {b: c for b, c in out.items() if c}
        return {exps: 1}

    def zero(self):
        return GradedClass(self, {})

    def one(self):
        return GradedClass(self, {self.unit: 1})

    def _exponents(self, name):
        if name not in self.index:
            raise InvalidParameterError("%s is not a basis monomial of %s" % (name, self.name))
        return self.index[name]

    def gen(self, name):
        return GradedClass(self, {self._exponents(name): 1})

    def cls(self, coeffs):
        """Build a class from {basis monomial: int, Fraction or ParamPoly}."""
        return GradedClass(self, {self._exponents(name): _scalar(c) for name, c in coeffs.items()})

    def __repr__(self):
        return "RingSpec(%s)" % self.name


def _scalar(x):
    """x as a coefficient: an int or Fraction as it is, a ParamPoly as its
    number when it is constant; InvalidParameterError for anything else
    (a float is not the rational it shows, and a bool is no number)."""
    if x.__class__ in NUMBERS:
        return x
    if isinstance(x, ParamPoly):
        return x.terms.get(_ONE, 0) if x.terms.keys() <= {_ONE} else x
    raise InvalidParameterError(
        "a coefficient must be an int, a Fraction or a ParamPoly, got %r" % (x,)
    )


class GradedClass:
    """Element of a RingSpec: exponent tuples with nonzero coefficients.

    A coefficient is an int or a Fraction, and a ParamPoly only where a
    formal variable lives: a ParamPoly that turns out constant is stored
    as its number, so classes built either way compare and hash equal.
    `coeff` (and so `degree`) returns a ParamPoly all the same.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {
            m: _scalar(c) if c.__class__ is ParamPoly else c for m, c in coeffs.items() if c
        }

    def coeff(self, name):
        c = self.coeffs.get(self.ring._exponents(name), 0)
        return c if c.__class__ is ParamPoly else ParamPoly.const(c)

    def is_zero(self):
        return not self.coeffs

    def graded_part(self, k):
        return GradedClass(self.ring, {m: c for m, c in self.coeffs.items() if sum(m) == k})

    def is_homogeneous(self, k):
        return all(sum(m) == k for m in self.coeffs)

    def _check_ring(self, other):
        if self.ring is not other.ring:
            raise RingMismatchError(
                "classes live in different rings: %s vs %s" % (self.ring.name, other.ring.name)
            )

    def __add__(self, other):
        if not isinstance(other, GradedClass):
            other = GradedClass(self.ring, {self.ring.unit: _scalar(other)})
        self._check_ring(other)
        coeffs = dict(self.coeffs)
        for m, c in other.coeffs.items():
            coeffs[m] = coeffs.get(m, 0) + c
        return GradedClass(self.ring, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, GradedClass) else -_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GradedClass):
            scalar = _scalar(other)
            return GradedClass(self.ring, {m: c * scalar for m, c in self.coeffs.items()})
        self._check_ring(other)
        coeffs = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                c = c1 * c2
                for m, f in self.ring.table[(m1, m2)].items():
                    coeffs[m] = coeffs.get(m, 0) + (c if f == 1 else c * f)
        return GradedClass(self.ring, coeffs)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n.__class__ is not int or n < 0:
            raise InvalidParameterError("exponent must be a nonnegative int")
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, GradedClass):
            if other.__class__ not in NUMBERS and other.__class__ is not ParamPoly:
                return NotImplemented
            other = GradedClass(self.ring, {self.ring.unit: other})
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        # a scalar class equals its number, so it hashes as that number
        if self.coeffs.keys() <= {self.ring.unit}:
            return hash(self.coeffs.get(self.ring.unit, 0))
        return hash((id(self.ring), frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m, name in zip(self.ring.monomials, self.ring.basis):
            if m in self.coeffs:
                c = self.coeffs[m]
                cs = str(c)
                if m == self.ring.unit:
                    parts.append(cs)
                elif cs == "1":
                    parts.append(name)
                elif (isinstance(c, ParamPoly) and len(c.terms) > 1
                      or "-" in cs or "/" in cs or "*" in cs):
                    parts.append("(%s)*%s" % (cs, name))
                else:
                    parts.append("%s*%s" % (cs, name))
        return " + ".join(parts)

    __repr__ = __str__


def degree(x):
    """Coefficient of the point class (zero if absent)."""
    return x.coeff(x.ring.point)


# -- ring construction -------------------------------------------------------


def _with_tangent(ring, tangent_chern):
    ring.tangent_chern = tangent_chern
    ring.canonical = -tangent_chern.graded_part(1)
    return ring


def _projective_product(name, gens, dims):
    """P^n1 x ... x P^nk: g^(n+1) = 0 and c(T) = prod (1 + g)^(n+1)."""
    ring = RingSpec(name, gens, dims)
    tangent = ring.one()
    for g, n in zip(gens, dims):
        tangent = tangent * (ring.one() + ring.gen(g)) ** (n + 1)
    return _with_tangent(ring, tangent)


@lru_cache(maxsize=None)
def p1():
    return _projective_product("P1", ("h",), (1,))


@lru_cache(maxsize=None)
def p3():
    return _projective_product("P3", ("h",), (3,))


@lru_cache(maxsize=None)
def p1xp3():
    return _projective_product("P1xP3", ("h1", "h3"), (1, 3))


@lru_cache(maxsize=None)
def p1xp1():
    return _projective_product("P1xP1", ("h1", "h2"), (1, 1))


@lru_cache(maxsize=None)
def sigma(e):
    """Hirzebruch surface Sigma_e: basis {1, C0, f, pt} with C0^2 = -e pt,
    C0.f = pt, f^2 = 0."""
    if e.__class__ is not int or e < 0:
        raise InvalidParameterError("Hirzebruch invariant e must be a nonnegative integer")
    ring = RingSpec("Sigma(%d)" % e, ("C0", "f"), (1, 1), {0: {(1, 1): -e}}, {(1, 1): "pt"})
    c0, f = ring.gen("C0"), ring.gen("f")
    # c1(T) = -K = 2C0 + (e+2)f, c2(T) = topological Euler number 4
    return _with_tangent(ring, ring.one() + 2 * c0 + (e + 2) * f + 4 * ring.gen("pt"))


# -- pullback -------------------------------------------------------------------


def pullback(x, images):
    """Image of x under the ring map sending generator k of x.ring to the
    degree-1 class images[k], all in one target ring (Fulton, Intersection
    Theory, 8.1).

    The restriction to a subvariety is the pullback along its inclusion:
    (0, h) restricts P1xP3 to a fiber {t} x P3, (h, 0) to a line P1 x {x},
    (h1, h2) to P1 x (line), and (alpha f, C0 + beta f) to an embedded
    Sigma_e.  The images must satisfy the relations of x.ring, as the
    classes of an inclusion do: images[k]^(top+1) must be the image of
    the rewrite of generator k, else RingMismatchError.
    """
    if len(images) != len(x.ring.tops):
        raise RingMismatchError(
            "%s has %d generators, got %d images" % (x.ring.name, len(x.ring.tops), len(images))
        )
    target = images[0].ring
    if any(y.ring is not target for y in images):
        raise RingMismatchError("the images live in different rings")
    if not all(y.is_homogeneous(1) for y in images):
        raise DegreeMismatchError("every image of a generator must have degree 1")
    powers = [[None, y] for y in images]  # powers[k][e] = images[k]^e, as needed

    def image(coeffs):
        out = target.zero()
        for m, c in coeffs.items():
            term = c  # a scalar until the first generator's image multiplies it
            for y, ps, e in zip(images, powers, m):
                if e:
                    while len(ps) <= e:
                        ps.append(ps[-1] * y)
                    term = ps[e] * term
            out = out + term
        return out

    for k, top in enumerate(x.ring.tops):
        relation = tuple(top + 1 if i == k else 0 for i in range(len(images)))
        if image({relation: 1}) != image(x.ring.rewrites.get(k, {})):
            raise RingMismatchError(
                "the images break the relation of generator %d of %s" % (k, x.ring.name)
            )
    return image(x.coeffs)
