"""Registry of verifiable claims.

Each claim bundles a stable id, a one-line description, a source anchor,
and a deterministic check returning PASS/FAIL with computed-vs-expected
strings.  A claim is declared once, by decorating its check with
`_claim(id, description, anchor, *args)`; a check that serves several
claims carries one decorator per claim, each with the arguments it is run
with.  Claims are pure and idempotent; the registry is keyed and run in
sorted id order.  Building the registry imports no computation module:
each check imports the modules it uses when it runs.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial

from .errors import UnknownClaimError


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    anchor: str
    check: object  # () -> ClaimResult


ClaimResult = namedtuple("ClaimResult", "ok computed expected")

REGISTRY = {}


def _claim(claim_id, description, anchor, *args):
    """Register the decorated check, run as check(*args), as claim `claim_id`
    (ValueError if that id is taken); the check is returned unchanged."""

    def register(check):
        if claim_id in REGISTRY:
            raise ValueError("duplicate claim id %r" % claim_id)
        REGISTRY[claim_id] = Claim(claim_id, description, anchor, partial(check, *args))
        return check

    return register


def _result(computed, expected):
    cs, es = str(computed), str(expected)
    return ClaimResult(cs == es, cs, es)


# -- individual checks -------------------------------------------------------


@_claim("eq5", "chi(E(a,b)) from Riemann-Roch equals the cubic closed form", "Eq. (5)")
def _check_eq5():
    from . import geometry

    poly = geometry.chi_twisted_bundle()
    golden = geometry.rr_polynomial()
    spot1 = poly.value({"a": 0, "b": 0})
    spot2 = poly.value({"a": -2, "b": -4})
    computed = "%s; chi(0,0)=%s; chi(-2,-4)=%s" % (poly, spot1, spot2)
    expected = "%s; chi(0,0)=-6; chi(-2,-4)=2" % golden
    return _result(computed, expected)


@_claim("intro-h1", "h^1(O(a,b)) = -(a+1) C(b+3,3) for a in [-6,-2], b in [0,5]", "Introduction")
def _check_intro_h1():
    from . import cohom

    bad = []
    for a in range(-6, -1):
        for b in range(0, 6):
            table = cohom.cohom_p1xp3(a, b)
            want = cohom.intro_h1(a, b)
            if table[1] != want or want <= 0:
                bad.append((a, b, table[1], want))
            rest = [table[i] for i in (0, 2, 3, 4)]
            if any(rest):
                bad.append((a, b, tuple(table), "only h1 nonzero"))
    return _result("violations=%s" % bad, "violations=[]")


def _line_chi():
    """chi(O(a,b)) on P1xP3 by Hirzebruch-Riemann-Roch through chern, with
    formal a and b."""
    from . import chern, chow
    from .poly import ParamPoly

    ring = chow.p1xp3()
    line = ParamPoly.var("a") * ring.gen("h1") + ParamPoly.var("b") * ring.gen("h3")
    return chern.euler_characteristic(chern.line_bundle(line))


@_claim("hrr-oracle", "Riemann-Roch chi of O(a,b) matches Kunneth tables on [-8,8]^2",
        "Sec. 3 / Bott-Kunneth")
def _check_hrr_oracle():
    from . import cohom

    # evaluation is a ring homomorphism, so one symbolic HRR serves every point
    chi = _line_chi()
    mismatches = sum(
        chi.value({"a": a, "b": b}) != cohom.cohom_p1xp3(a, b).chi
        for a in range(-8, 9)
        for b in range(-8, 9)
    )
    return _result("mismatches=%d of 289" % mismatches, "mismatches=0 of 289")


@_claim("prop3.1", "stable for O(1,1) with threshold 7", "Prop. 3.1")
def _check_prop31():
    from fractions import Fraction

    from . import stability

    pol = stability.Polarization(1, 1)
    threshold = Fraction(stability.slope_dot(stability._det(), pol).constant(), 2)
    verdict = stability.stability_decide(pol)
    return _result(
        "threshold=%s, verdict=%s" % (threshold, verdict),
        "threshold=7, verdict=stable",
    )


@_claim("remark3.3",
        "stability region is exactly n < 18m for all m, n > 0, cross-checked on [1,40]^2",
        "Remark 3.3")
def _check_remark33():
    from . import stability

    ratio = stability.stable_ratio()
    bad = [] if ratio == 18 else [("n < r*m", ratio)]
    # the ratio covers the whole quadrant; the grid cross-checks stability_decide
    for m in range(1, 41):
        for n in range(1, 41):
            got = stability.stability_decide(stability.Polarization(m, n))
            want = (
                "stable" if n < 18 * m else
                "semistable_not_stable" if n == 18 * m else "unstable"
            )
            if got != want:
                bad.append((m, n, got, want))
    return _result("violations=%s" % bad[:3], "violations=[]")


@_claim("prop2.2", "symmetry group has order 8, dihedral relations, abelianization (2,2)",
        "Prop. 2.2")
def _check_prop22():
    from . import heisenberg

    g = heisenberg.group_closure((heisenberg.SIGMA, heisenberg.TAU))
    relations = heisenberg.relation_check(g)
    derived_order, ab = heisenberg.commutator_structure(g)
    computed = "order=%d, relations=%s, derived=%d, ab=%s" % (
        g.order, all(relations.values()), derived_order, ab
    )
    return _result(computed, "order=8, relations=True, derived=2, ab=(2, 2)")


@_claim("prop2.1", "tensor square 20, type (10,10), no element of order 4", "Prop. 2.1")
def _check_prop21():
    from . import chern, chow, heisenberg

    # (L1 + L3)^2 on X: the degree of h^2 . c2(E) with h = h1 + h3
    ring = chow.p1xp3()
    h = ring.gen("h1") + ring.gen("h3")
    sq = chow.degree(h * h * chern.abelian_surface_bundle().c2).constant()
    k = heisenberg.type_from_square(sq)
    no4 = heisenberg.has_element_of_order(k, 4)
    yes4 = heisenberg.has_element_of_order((4, 4), 4)
    computed = "square=%d, type=%s, order4=%s, (4,4)-order4=%s" % (sq, k, no4, yes4)
    return _result(computed, "square=20, type=(10, 10), order4=False, (4,4)-order4=True")


@_claim("prop5.3-e0", "double-structure solver: (x,y,d) = (2,-2,4) for e = 0", "Prop. 5.3",
        0, (2, -2, 4))
@_claim("prop5.3-e2", "double-structure solver: (x,y,d) = (2,0,4) for e = 2", "Prop. 5.3",
        2, (2, 0, 4))
def _check_prop53(e, expected):
    from . import geometry

    sol = geometry.double_structure_solve(e)
    residual = geometry.double_structure_identity(e).subs(
        {"x": sol.x, "y": sol.y, "d": sol.d}
    )
    computed = "(x,y,d)=%s, residual=%s" % ((sol.x, sol.y, sol.d), residual)
    return _result(computed, "(x,y,d)=%s, residual=0" % (expected,))


@_claim("lemma5.2", "embedding classification yields (0,1,1) and (2,1,2) only", "Lemma 5.2")
def _check_lemma52():
    from . import geometry

    small = geometry.classify_embeddings(2)
    large = geometry.classify_embeddings(10)
    computed = "e_max=2: %s, e_max=10: %s" % (small, large)
    want = [(0, 1, 1), (2, 1, 2)]
    expected = "e_max=2: %s, e_max=10: %s" % (want, want)
    return _result(computed, expected)


@_claim("prop5.4", "degree-4 line bundle cannot embed into the normal bundle, e = 2 obstructed",
        "Prop. 5.4")
def _check_prop54():
    from . import geometry

    return _result("obstructed=%s" % geometry.prop54_obstruction(), "obstructed=True")


@_claim("lemma5.5", "multiplication maps of sections on P1 are surjective", "Lemma 5.5")
def _check_lemma55():
    from . import geometry

    bad = [
        (a, b)
        for a in range(0, 9)
        for b in range(0, 9)
        if not geometry.multiplication_surjective(a, b)
    ]
    return _result("non-surjective=%s" % bad, "non-surjective=[]")


@_claim("prop5.6", "(a,b)-normality for b >= 3 and (0,1); codimension bounds otherwise",
        "Prop. 5.6 / Remark 5.7")
def _check_prop56():
    from . import geometry

    cases = []
    for a in range(0, 6):
        for b in range(3, 7):
            s = geometry.normality_status(a, b)
            if not s.normal:
                cases.append((a, b, "not normal"))
    s01 = geometry.normality_status(0, 1)
    s52 = geometry.normality_status(5, 2)
    s30 = geometry.normality_status(3, 0)
    computed = "grid=%s, (0,1)=%s, (5,2)=bound %d, (3,0)=bound %d" % (
        cases, s01.normal, s52.codim_bound, s30.codim_bound
    )
    return _result(computed, "grid=[], (0,1)=True, (5,2)=bound 6, (3,0)=bound 6")


@_claim("lemma3.4", "long exact sequence gives h^i(I_X) = (0,0,2,1,0)", "Lemma 3.4")
def _check_lemma34():
    from . import cohom

    table = cohom.les_solve(None, cohom.CohomTable((1, 0, 0, 0, 0)), cohom.ABELIAN_SURFACE_TABLE,
                            hints=(cohom.MapRankHint("B->C", 0, 1),))
    return _result("h(I_X)=%s" % (table,), "h(I_X)=(0, 0, 2, 1, 0)")


def _h0_restricted():
    """h^0(E_t(-2)) by the long exact sequence, for Props. 4.1 and 6.1(a)."""
    from . import cohom

    return cohom.les_solve(cohom.CohomTable((0, 0, 0, 0)), None, (1, None, None, None))[0]


@_claim("prop4.1", "h^0(E_t(-2)) = 1 from the restriction sequence", "Prop. 4.1")
def _check_prop41():
    return _result("h0=%s" % (_h0_restricted(),), "h0=1")


@_claim("lemma4.2", "c2(E_t(-2)) = 2 and arithmetic genus -3 of X_t", "Lemma 4.2")
def _check_lemma42():
    from fractions import Fraction

    from . import chern, chow

    # E_t: the pullback to a fiber {t} x P3 (h1 -> 0, h3 -> h)
    ring = chow.p3()
    fiber = (ring.zero(), ring.gen("h"))
    restricted = chern.restrict_bundle(chern.abelian_surface_bundle(), fiber)
    twisted = chern.twist(restricted, -2 * ring.gen("h"))
    c1 = twisted.c1.coeff("h")
    c2 = twisted.c2.coeff("h^2")
    # adjunction for the zero locus X_t of a section: deg K = (c1 + K_P3) . c2
    two_pa_minus_2 = chow.degree((twisted.c1 + ring.canonical) * twisted.c2).constant()
    pa = Fraction(two_pa_minus_2 + 2, 2)
    computed = "c1=%s, c2=%s, 2pa-2=%s, pa=%s" % (c1, c2, two_pa_minus_2, pa)
    return _result(computed, "c1=0, c2=2, 2pa-2=-8, pa=-3")


@_claim("lemma1.3-linear", "linear rank-2 normal form admits exactly 2 rank-1 quadrics",
        "Lemma 1.3")
def _check_lemma13_linear():
    from . import pencil

    p = pencil.QuadricPencil.rank2_normal_form(2, 1, 3)
    count = p.rank1_parameter_count()
    _, constant = p.singular_line_family()
    computed = "generic_rank=%d, rank1_count=%s, constant_line=%s" % (
        p.generic_rank(), count, constant
    )
    return _result(computed, "generic_rank=2, rank1_count=2, constant_line=True")


@_claim("lemma1.4-family", "degree-4 witness: 4 rank-1 parameters, moving singular line",
        "Lemma 1.4 / Sec. 1 (7)")
def _check_lemma14_family():
    from . import pencil

    p = pencil.QuadricPencil.degree4_witness()
    count = p.rank1_parameter_count()
    _, constant = p.singular_line_family()
    spots = [p.rank_at(1, 1), p.rank_at(1, -1), p.rank_at(1, 0), p.rank_at(0, 1)]
    computed = "rank1_count=%s, constant_line=%s, ranks_at_roots=%s" % (
        count, constant, spots
    )
    return _result(computed, "rank1_count=4, constant_line=False, ranks_at_roots=[1, 1, 1, 1]")


@_claim("prop6.1b", "vertical generic splitting type (1,1)", "Prop. 6.1(b)",
        (1, 0), {1: 1, 2: 0}, (1, 1))
@_claim("prop6.2b", "splitting type (4,0) on a transversal jumping line", "Prop. 6.2(b)",
        (0, 1), {4: 1, 5: 0}, (4, 0))
def _splitting_claim(line, data, expected):
    """Splitting type on a line of P1xP3 given by `line`, the multiples of
    the line's point class h that h1 and h3 pull back to: (0, 1) on a
    horizontal line {t} x (line), (1, 0) on a vertical line P1 x {x}."""
    from . import chern, chow, geometry

    h = chow.p1().gen("h")
    images = tuple(k * h for k in line)
    c1 = chow.degree(chow.pullback(chern.abelian_surface_bundle().c1, images)).constant()
    got = geometry.splitting_from_sections(c1, data)
    return _result("splitting=%s" % (got,), "splitting=%s" % (expected,))


@_claim("prop6.1a", "horizontal generic splitting type (2,2)", "Prop. 6.1(a)")
def _check_prop61a():
    return _splitting_claim((0, 1), {2: _h0_restricted(), 3: 0, 4: 0}, (2, 2))


@_claim("lemma6.5-r1", "jumping divisor degree 4 with one kernel summand", "Lemma 6.5", 1)
@_claim("lemma6.5-r2", "jumping divisor degree 4 with two kernel summands", "Lemma 6.5", 2)
@_claim("lemma6.5-r3", "jumping divisor degree 4 with three kernel summands", "Lemma 6.5", 3)
def _check_lemma65(r):
    from . import geometry

    deg = geometry.jumping_divisor_degree(r)
    return _result("deg D=%s" % (deg,), "deg D=4")


@_claim("serre-duality", "Serre duality table symmetry on [-8,8]^2", "Lemma 3.4 proof")
def _check_serre_duality():
    from . import cohom

    bad = [
        (a, b)
        for a in range(-8, 9)
        for b in range(-8, 9)
        if not cohom.serre_dual_check(a, b)
    ]
    return _result("violations=%s" % bad[:3], "violations=[]")


def all_ids():
    return sorted(REGISTRY)


def get_claim(claim_id):
    try:
        return REGISTRY[claim_id]
    except KeyError:
        raise UnknownClaimError("unknown claim id %r" % claim_id) from None

