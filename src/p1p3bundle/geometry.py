"""Solvers and checks specific to the double structure and splitting types.

Covers the Hirzebruch embedding classification, the double-structure
solver for the ideal line bundle and the pencil degree, the normal-bundle
obstruction ruling out e = 2, the normality criteria on Sigma_0, splitting
types from section data, and the degree of the jumping divisor via the
Grothendieck-Riemann-Roch pushforward.  Every intersection number and
Euler characteristic here comes from `chow` and `chern`; `cohom` supplies
only the integer cohomology tables on Sigma_0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import chern, chow
from .errors import InconsistentError, InvalidParameterError, SolverError
from .poly import ParamPoly, solve_zero_identity


# chi(E(a,b)) as Eq. (5) states it, a golden constant: claim eq5 checks that
# HRR of E gives it, so an HRR drift fails there instead of being absorbed
def rr_polynomial():
    """-6 + 12a + 34/3 b + 6b^2 + 41/3 ab + 2/3 b^3 + 4ab^2 + 1/3 ab^3."""
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    return (
        ParamPoly.const(-6)
        + 12 * a
        + Fraction(34, 3) * b
        + 6 * b ** 2
        + Fraction(41, 3) * a * b
        + Fraction(2, 3) * b ** 3
        + 4 * a * b ** 2
        + Fraction(1, 3) * a * b ** 3
    )


def chi_twisted_bundle():
    """chi(E(a,b)) computed by Hirzebruch-Riemann-Roch, symbolically."""
    ring = chow.p1xp3()
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    twisted = chern.twist(chern.abelian_surface_bundle(), a * ring.gen("h1") + b * ring.gen("h3"))
    return chern.euler_characteristic(twisted)


# -- Hirzebruch embedding classification ------------------------------------


def classify_embeddings(e_max):
    """All (e, alpha, beta) with the embedding constraints of the surface Z.

    The constraints, computed in the Sigma_e ring: alpha = 1 (the section
    hits h1 once), degree((C0 + beta f)^2) = 2, and beta <= 2.
    """
    if e_max < 2:
        raise InvalidParameterError("e_max must be >= 2")
    out = []
    for e in range(e_max + 1):
        ring = chow.sigma(e)
        c0, f = ring.gen("C0"), ring.gen("f")
        for beta in range(3):
            if chow.degree((c0 + beta * f) ** 2).constant() == 2:
                out.append((e, 1, beta))
    return out


# -- the double-structure solver ----------------------------------------------


DoubleStructureSolution = namedtuple("DoubleStructureSolution", "e x y d")


@lru_cache(maxsize=None)
def double_structure_identity(e):
    """The polynomial in (a, b, x, y, d) that must vanish identically.

    Assembles chi(E(a,b)) from the restriction sequences of the double
    structure Y on Z = Sigma_e, then subtracts chi(E(a,b)) by HRR of E.
    With (alpha, beta) the embedding of Z, the twist O(p, q),
    (p, q) = (a + d, b + 2), restricts to Z by the pullback along
    h1 -> alpha f, h3 -> C0 + beta f, which is q C0 + (alpha p + beta q) f.
    """
    embeddings = {s[0]: s[1:] for s in classify_embeddings(2)}  # e -> (alpha, beta)
    if e not in embeddings:
        raise InvalidParameterError("e must be one of %s" % sorted(embeddings))
    alpha, beta = embeddings[e]
    ring, surface = chow.p1xp3(), chow.sigma(e)
    h1, h3 = ring.gen("h1"), ring.gen("h3")
    c0, f = surface.gen("C0"), surface.gen("f")
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    x, y, d = ParamPoly.var("x"), ParamPoly.var("y"), ParamPoly.var("d")

    def chi(line_class):
        return chern.euler_characteristic(chern.line_bundle(line_class))

    p, q = a + d, b + 2
    twist = chow.pullback(p * h1 + q * h3, (alpha * f, c0 + beta * f))
    return (
        chi((a - d + 2) * h1 + q * h3)
        + chi(p * h1 + q * h3)
        - chi(x * c0 + y * f + twist)
        - chi(twist)
        - chi_twisted_bundle()
    )


@lru_cache(maxsize=None)
def double_structure_solve(e):
    """The (x, y, d) making the decomposition match Riemann-Roch, unique
    over Q by elimination; raises SolverError unless it is integral."""
    (s,) = solve_zero_identity(double_structure_identity(e), ("x", "y", "d"))
    if any(v.denominator != 1 for v in s.values()):
        raise SolverError("non-integral solution %s: implementation bug" % s)
    return DoubleStructureSolution(e, int(s["x"]), int(s["y"]), int(s["d"]))


# -- the normal-bundle obstruction --------------------------------------------


def subbundle_embeds(line_degree, summand_degrees):
    """Can O(line_degree) on P1 be a subbundle of (+)O(d_i)? Degree criterion."""
    return line_degree <= max(summand_degrees)


def _normal_splittings(e):
    """The splitting types (k, n - k), k <= n - k, that N_Z restricted to the
    section C0 of Z = Sigma_e can have.

    C0 is P1 x {point} in P1xP3, so N_{C0/P1xP3} = O^3, and its subbundle
    N_{C0/Z} = O(C0^2) leaves N_Z|C0 a globally generated quotient of rank 2
    and degree n = -C0^2: each summand has degree >= 0.
    """
    c0 = chow.sigma(e).gen("C0")
    n = -chow.degree(c0 * c0).constant()
    return [(k, n - k) for k in range(n // 2 + 1)]


def prop54_obstruction():
    """True iff the e = 2 double structure is obstructed.

    The ideal line bundle's inverse restricted to the (-2)-section has
    degree -(x C0 + y f).C0 in Sigma_2; a degree-4 line bundle on P1 cannot
    embed into any splitting of N_Z|C0, O + O(2) or O(1) + O(1).
    """
    sol = double_structure_solve(2)
    ring = chow.sigma(2)
    c0, f = ring.gen("C0"), ring.gen("f")
    ideal_class = sol.x * c0 + sol.y * f
    restricted_degree = chow.degree(-(ideal_class * c0)).constant()
    return restricted_degree == 4 and not any(
        subbundle_embeds(restricted_degree, c) for c in _normal_splittings(2)
    )


# -- normality criteria ----------------------------------------------------------


# codim_bound is 0 when normal
NormalityStatus = namedtuple("NormalityStatus", "normal codim_bound")


def normality_status(a, b):
    """(a,b)-normality of the double structure, or a codimension bound.

    Decided by the h^1 vanishing of O_Z((b-4)C0 + (a+b-2)f) on Sigma_0;
    when it does not settle normality the h^1 value itself bounds the
    codimension of the restriction map (b=2: a+1, b=1: 2a, b=0: 3(a-1)).
    """
    from . import cohom  # only the normality claims read a cohomology table

    if a < 0 or b < 0:
        raise InvalidParameterError("normality is defined for a, b >= 0")
    h1 = cohom.cohom_sigma0(b - 4, a + b - 2)[1]
    if h1 == 0 and (b >= 3 or (a, b) == (0, 1)):
        return NormalityStatus(True, 0)
    return NormalityStatus(False, h1)


def multiplication_surjective(a, b):
    """H^0(O_P1(a)) (x) H^0(O_P1(b)) -> H^0(O_P1(a+b)) surjectivity by
    monomial span counting."""
    if a < 0 or b < 0:
        raise InvalidParameterError("needs a, b >= 0")
    products = {i + j for i in range(a + 1) for j in range(b + 1)}
    return products == set(range(a + b + 1))


# -- splitting types --------------------------------------------------------------


def splitting_from_sections(c1, section_twists):
    """Splitting type O(a) + O(c1 - a) on a line from twisted section counts.

    The top degree a is the maximal k with h^0 of the k-twisted-down
    restriction nonzero; returns the pair (a, c1 - a), a >= c1 - a.
    """
    positive = [k for k, h0 in section_twists.items() if h0 > 0]
    if not positive:
        raise InconsistentError("section data shows no sections at all")
    a = max(positive)
    if 2 * a < c1:
        raise InconsistentError(
            "top degree %d contradicts c1 = %d (needs 2a >= c1)" % (a, c1)
        )
    return (a, c1 - a)


# -- the jumping divisor degree -----------------------------------------------------


def restricted_twisted_bundle():
    """E restricted to P1 x (general line), twisted by O(-2,-2)."""
    h1, h2 = chow.p1xp1().gen("h1"), chow.p1xp1().gen("h2")
    restricted = chern.restrict_bundle(chern.abelian_surface_bundle(), (h1, h2))
    return chern.twist(restricted, -2 * h1 - 2 * h2)


def resolution_summands(r):
    """The r+2 formal line summands O(-a_i, -b_i) of a resolution."""
    ring = chow.p1xp1()
    h1, h2 = ring.gen("h1"), ring.gen("h2")
    out = []
    for i in range(1, r + 3):
        ai = ParamPoly.var("a%d" % i)
        bi = ParamPoly.var("b%d" % i)
        out.append(chern.line_bundle(-(ai * h1) - bi * h2))
    return out


def jumping_divisor_degree(r):
    """Degree of the jumping divisor, via GRR along P1xP1 -> P1.

    Builds the kernel K of a resolution with r+2 formal line summands,
    pushes both sides forward, and forms c1(target) - c1(source) of the
    induced map R^1(K) -> (+) R^1(O(-a_i, -b_i)).  All formal exponents
    must cancel, leaving the constant 4.
    """
    if r < 1:
        raise InvalidParameterError("needs at least one kernel summand")
    summands = resolution_summands(r)
    total = chern.direct_sum(*summands)
    kernel = chern.whitney_complement(total, restricted_twisted_bundle())
    _, kernel_c1 = chern.grr_pushforward(kernel)
    summand_c1 = ParamPoly.const(0)
    for s in summands:
        _, vc1 = chern.grr_pushforward(s)
        summand_c1 = summand_c1 + vc1
    # c1(R^1 F) = -(virtual c1 of q_!F) since q_* vanishes for all pieces
    return kernel_c1 - summand_c1
