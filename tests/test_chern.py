from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1p3bundle import chern, chow, cohom
from p1p3bundle.errors import DegreeMismatchError, RingMismatchError
from p1p3bundle.poly import ParamPoly

SHIPPED_RINGS = [chow.p1, chow.p3, chow.p1xp3, chow.p1xp1] + [
    partial(chow.sigma, e) for e in range(6)
]


def test_abelian_surface_bundle_chern_classes():
    ring = chow.p1xp3()
    b = chern.abelian_surface_bundle()
    assert b.rank == 2 and type(b.rank) is int
    assert b.c1 == 2 * ring.gen("h1") + 4 * ring.gen("h3")
    assert b.c2 == 8 * ring.gen("h1") * ring.gen("h3") + 6 * ring.gen("h3") ** 2


def test_serre_bundle_matches_abelian_surface_bundle():
    ring = chow.p1xp3()
    det = 2 * ring.gen("h1") + 4 * ring.gen("h3")
    locus = 8 * ring.gen("h1") * ring.gen("h3") + 6 * ring.gen("h3") ** 2
    assert chern.serre_bundle(det, locus) == chern.abelian_surface_bundle()


def test_serre_bundle_rejects_wrong_degrees():
    ring = chow.p1xp3()
    with pytest.raises(DegreeMismatchError):
        chern.serre_bundle(ring.gen("h3") ** 2, ring.gen("h3") ** 2)


def test_twist_roundtrip():
    ring = chow.p1xp3()
    line = 3 * ring.gen("h1") - ring.gen("h3")
    b = chern.abelian_surface_bundle()
    assert chern.twist(chern.twist(b, line), -line) == b


def test_twist_line_bundle():
    ring = chow.p3()
    lb = chern.line_bundle(2 * ring.gen("h"))
    assert chern.twist(lb, ring.gen("h")).c1 == 3 * ring.gen("h")


def test_twist_rank2_formulas():
    ring = chow.p3()
    h = ring.gen("h")
    b = chern.BundleSymbol(ring, 2, (4 * h, 6 * h * h))
    t = chern.twist(b, -2 * h)
    assert t.c1.is_zero()
    assert t.c2 == 2 * h * h


def test_twist_rank3_sum_is_sum_of_twists():
    ring = chow.p1xp3()
    h1, h3 = ring.gen("h1"), ring.gen("h3")
    lines = [chern.line_bundle(c) for c in (h1 - 2 * h3, 3 * h3, -h1 + h3)]
    m = 2 * h1 - 5 * h3
    assert chern.twist(chern.direct_sum(*lines), m) == chern.direct_sum(
        *(chern.twist(line, m) for line in lines)
    )


def test_twist_and_ch_with_formal_rank():
    # O^r (x) L has c(L)^r = (1 + l)^r and ch = r e^l, for a formal rank r
    ring = chow.p1xp1()
    r = ParamPoly.var("r")
    line = ring.gen("h1") + 2 * ring.gen("h2")
    t = chern.twist(chern.BundleSymbol(ring, r), line)
    assert t.c1 == r * line
    assert t.c2 == r * (r - 1) * Fraction(1, 2) * line * line
    assert chern.chern_character(t) == r * (ring.one() + line + Fraction(1, 2) * line * line)


def test_whitney_complement_inverts_direct_sum():
    ring = chow.p1xp1()
    a = chern.line_bundle(2 * ring.gen("h1"))
    b = chern.line_bundle(ring.gen("h1") + 3 * ring.gen("h2"))
    total = chern.direct_sum(a, b)
    assert chern.whitney_complement(total, a) == b
    assert chern.whitney_complement(total, b) == a


def test_whitney_complement_ring_mismatch():
    a = chern.line_bundle(chow.p1xp1().gen("h1"))
    b = chern.BundleSymbol(chow.p3(), 1)
    with pytest.raises(RingMismatchError):
        chern.whitney_complement(a, b)


def test_chern_character_line_bundle():
    ring = chow.p3()
    h = ring.gen("h")
    ch = chern.chern_character(chern.line_bundle(2 * h))
    assert ch.graded_part(0) == ring.one()
    assert ch.graded_part(1) == 2 * h
    assert ch.graded_part(2) == 2 * h * h
    assert ch.graded_part(3) == Fraction(4, 3) * (h * h * h)


def test_chern_character_additive_on_sums():
    ring = chow.p1xp1()
    a = chern.line_bundle(ring.gen("h1"))
    b = chern.line_bundle(2 * ring.gen("h2"))
    lhs = chern.chern_character(chern.direct_sum(a, b))
    rhs = chern.chern_character(a) + chern.chern_character(b)
    assert lhs == rhs


def _old_todd(ring):
    """The hand-written Todd classes the universal polynomial replaced."""
    one = ring.one()
    if ring.name == "P1":
        return one + ring.gen("h")
    if ring.name == "P3":
        h = ring.gen("h")
        return one + 2 * h + Fraction(11, 6) * h * h + h ** 3
    if ring.name == "P1xP3":
        h1, h3 = ring.gen("h1"), ring.gen("h3")
        return (one + h1) * (one + 2 * h3 + Fraction(11, 6) * h3 * h3 + h3 ** 3)
    if ring.name == "P1xP1":
        return (one + ring.gen("h1")) * (one + ring.gen("h2"))
    e = int(ring.name[len("Sigma("):-1])
    return one + ring.gen("C0") + Fraction(e + 2, 2) * ring.gen("f") + ring.gen("pt")


@pytest.mark.parametrize("make_ring", SHIPPED_RINGS, ids=lambda make_ring: make_ring().name)
def test_todd_matches_hand_written_products(make_ring):
    ring = make_ring()
    assert chern.todd(ring) == _old_todd(ring)


def test_todd_polynomial_matches_root_expansion():
    # td = prod_i x_i / (1 - e^-x_i) over the Chern roots, to degree 4,
    # rewritten in c_k = e_k(x) and evaluated on formal tangent classes of a
    # copy of P1xP3, where c1^4, c1^2c2, c1c3, c2^2 and c4 stay independent
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize

    xs = sympy.symbols("x1:5")
    t, x = sympy.symbols("t x")
    q = sympy.series(t * x / (1 - sympy.exp(-t * x)), t, 0, 5).removeO()
    product = sympy.expand(sympy.prod(q.subs(x, xi) for xi in xs))
    product = sum(product.coeff(t, k) for k in range(5))
    sym, rest, defs = symmetrize(product, *xs, formal=True)
    assert rest == 0
    cs = sympy.symbols("c1:5")
    poly = sympy.Poly(sym.subs({s: c for (s, _), c in zip(defs, cs)}), *cs)

    ring = chow.RingSpec("P1xP3 (formal tangent)", ("h1", "h3"), (1, 3))
    u = [ParamPoly.var("u%d" % k) for k in range(7)]
    tangent = [
        u[0] * ring.gen("h1") + u[1] * ring.gen("h3"),
        u[2] * ring.gen("h1*h3") + u[3] * ring.gen("h3^2"),
        u[4] * ring.gen("h1*h3^2") + u[5] * ring.gen("h3^3"),
        u[6] * ring.gen("h1*h3^3"),
    ]
    ring.tangent_chern = ring.one() + sum(tangent, ring.zero())
    expected = ring.zero()
    for exps, coeff in poly.terms():
        term = ring.one() * Fraction(int(coeff.p), int(coeff.q))
        for c, e in zip(tangent, exps):
            term = term * c ** e
        expected = expected + term
    assert chern.todd(ring) == expected


def _line_classes(ring):
    gens = [name for name, m in zip(ring.basis, ring.monomials) if sum(m) == 1]
    coeffs = st.lists(st.integers(-6, 6), min_size=len(gens), max_size=len(gens))
    return coeffs.map(lambda cs: ring.cls(dict(zip(gens, cs))))


@st.composite
def _ring_lines_and_twist(draw):
    ring = draw(st.sampled_from(SHIPPED_RINGS))()
    lines = draw(st.lists(_line_classes(ring), min_size=1, max_size=4))
    return ring, [chern.line_bundle(c) for c in lines], draw(_line_classes(ring))


@settings(max_examples=40, deadline=None)
@given(_ring_lines_and_twist())
def test_calculus_properties_on_every_ring(data):
    ring, lines, m = data
    total = chern.direct_sum(*lines)
    ch_sum = ring.zero()
    for line in lines:
        ch_sum = ch_sum + chern.chern_character(line)
    assert chern.chern_character(total) == ch_sum
    assert chern.twist(chern.twist(total, m), -m) == total
    assert chern.twist(total, m) == chern.direct_sum(*(chern.twist(l, m) for l in lines))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7)), min_size=1, max_size=4))
def test_hrr_of_sums_on_p1xp3_matches_kunneth(bidegrees):
    ring = chow.p1xp3()
    lines = [chern.line_bundle(a * ring.gen("h1") + b * ring.gen("h3")) for a, b in bidegrees]
    chi = chern.euler_characteristic(chern.direct_sum(*lines)).constant()
    assert chi == sum(cohom.cohom_p1xp3(a, b).chi for a, b in bidegrees)


def test_todd_p3():
    ring = chow.p3()
    h = ring.gen("h")
    td = chern.todd(ring)
    assert td.graded_part(0) == ring.one()
    assert td.graded_part(1) == 2 * h
    assert td.graded_part(2) == Fraction(11, 6) * (h * h)
    assert td.graded_part(3) == h * h * h


def test_euler_characteristic_on_p3():
    ring = chow.p3()
    for k in range(-6, 7):
        lb = chern.line_bundle(ParamPoly.const(k) * ring.gen("h"))
        chi = chern.euler_characteristic(lb).constant()
        expected = comb(k + 3, 3) if k >= -3 else -comb(-k - 1, 3)
        if k in (-1, -2, -3):
            expected = 0
        assert chi == expected, k


def test_chi_sigma_closed_forms():
    # HRR on Sigma_e against chi(O(u C0 + v f)) = (u + 1)(v + 1 - e u / 2),
    # with formal u and v
    u, v = ParamPoly.var("u"), ParamPoly.var("v")
    for e in range(7):
        ring = chow.sigma(e)
        line = chern.line_bundle(u * ring.gen("C0") + v * ring.gen("f"))
        assert chern.euler_characteristic(line) == (u + 1) * (v + 1 - Fraction(e, 2) * u), e


def test_euler_characteristic_structure_sheaves():
    assert chern.euler_characteristic(chern.BundleSymbol(chow.p3(), 1)).constant() == 1
    assert chern.euler_characteristic(chern.BundleSymbol(chow.p1xp3(), 1)).constant() == 1
    assert chern.euler_characteristic(chern.BundleSymbol(chow.sigma(2), 1)).constant() == 1


def test_restrict_bundle_horizontal_and_vertical():
    b = chern.abelian_surface_bundle()
    h = chow.p3().gen("h")
    hor = chern.restrict_bundle(b, (chow.p3().zero(), h))
    assert hor.ring is chow.p3()
    assert hor.c1 == 4 * h
    assert hor.c2 == 6 * h * h
    h = chow.p1().gen("h")
    ver = chern.restrict_bundle(b, (h, chow.p1().zero()))
    assert ver.ring is chow.p1()
    assert ver.c1 == 2 * h


def test_restrict_bundle_to_p1xline():
    ring = chow.p1xp1()
    r = chern.restrict_bundle(chern.abelian_surface_bundle(), (ring.gen("h1"), ring.gen("h2")))
    assert r.ring is ring
    assert r.c1 == 2 * ring.gen("h1") + 4 * ring.gen("h2")
    assert r.c2 == 8 * ring.gen("h1") * ring.gen("h2")


def test_restricted_twist_used_by_jumping_divisor():
    # E on P1x(line), twisted by O(-2,-2): c1 = -2h1, c2 = 4 pt
    ring = chow.p1xp1()
    r = chern.restrict_bundle(chern.abelian_surface_bundle(), (ring.gen("h1"), ring.gen("h2")))
    t = chern.twist(r, -2 * ring.gen("h1") - 2 * ring.gen("h2"))
    assert t.c1 == -2 * ring.gen("h1")
    assert t.c2 == 4 * ring.gen("h1") * ring.gen("h2")


def test_grr_pushforward_of_line_bundles():
    ring = chow.p1xp1()
    h1, h2 = ring.gen("h1"), ring.gen("h2")
    for a in range(0, 5):
        for b in range(0, 5):
            lb = chern.line_bundle(-ParamPoly.const(a) * h1 - ParamPoly.const(b) * h2)
            rank, c1 = chern.grr_pushforward(lb)
            assert rank.constant() == 1 - a
            assert c1.constant() == b * (a - 1)


def test_numeric_chi_makes_no_polynomial_product(monkeypatch):
    # a numeric twist keeps every Chow coefficient a number, so HRR never
    # multiplies two ParamPolys (the Chern and Todd classes are warm)
    ring, bundle = chow.p1xp3(), chern.abelian_surface_bundle()
    chern.euler_characteristic(bundle)
    products = []
    mul = ParamPoly.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(ParamPoly, "__mul__", counting)
    monkeypatch.setattr(ParamPoly, "__rmul__", counting)
    for a, b in ((0, 0), (3, -2), (-7, 5)):
        twisted = chern.twist(bundle, a * ring.gen("h1") + b * ring.gen("h3"))
        chi = chern.euler_characteristic(twisted)
        assert 3 * chi.constant() == (-18 + 36 * a + 34 * b + 18 * b * b + 41 * a * b
                                      + 2 * b ** 3 + 12 * a * b * b + a * b ** 3)
        # exact numbers all the way: no float, and no ParamPoly, in any coefficient
        classes = twisted.cs + (chern.chern_character(twisted), chern.todd(ring))
        assert {type(c) for x in classes for c in x.coeffs.values()} <= {int, Fraction}
        assert type(chi.constant()) is int  # the number chi holds, integral here
    assert products == []


def test_hrr_oracle_runs_one_symbolic_hrr(monkeypatch):
    from p1p3bundle import claims

    calls = []
    euler = chern.euler_characteristic
    monkeypatch.setattr(chern, "euler_characteristic", lambda b: calls.append(b) or euler(b))
    result = claims.get_claim("hrr-oracle").check()
    assert result.ok and len(calls) == 1
