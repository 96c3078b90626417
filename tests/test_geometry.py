from fractions import Fraction

import pytest

from p1p3bundle import chern, chow, claims, geometry
from p1p3bundle.errors import InconsistentError, InvalidParameterError
from p1p3bundle.poly import ParamPoly


def test_rr_polynomial_matches_hrr():
    assert geometry.chi_twisted_bundle() == geometry.rr_polynomial()


def _to_sympy(sympy, p):
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.prod([sympy.Symbol(v) ** e for v, e in mono]) for mono, c in p.terms.items()),
        sympy.Integer(0),
    )


def test_hrr_oracle_chi_is_the_bott_kunneth_polynomial():
    sympy = pytest.importorskip("sympy")
    a, b = sympy.symbols("a b")
    want = (a + 1) * sympy.expand_func(sympy.binomial(b + 3, 3))
    assert sympy.expand(_to_sympy(sympy, claims._line_chi()) - want) == 0


def test_rr_polynomial_matches_sympy_hrr():
    # chi(E(a,b)) = integral of ch(E) e^(a h1 + b h3) td(P1) td(P3) over
    # P1xP3, in Q[h1, h3]/(h1^2, h3^4) where h1 h3^3 is the point; ch(E)
    # from Chern roots x1 + x2 = c1, x1 x2 = c2, td from t / (1 - e^-t)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize

    a, b, h1, h3, t, x1, x2 = sympy.symbols("a b h1 h3 t x1 x2")

    def series(f, var, order):
        return sympy.series(f, var, 0, order).removeO()

    roots = sympy.expand(series(sympy.exp(t * x1) + sympy.exp(t * x2), t, 5))
    sym, rest, (e1, e2) = symmetrize(roots, x1, x2, formal=True)
    assert rest == 0
    ch_e = sym.subs({e1[0]: 2 * h1 + 4 * h3, e2[0]: 8 * h1 * h3 + 6 * h3 ** 2, t: 1})
    twist = series(sympy.exp(t * (a * h1 + b * h3)), t, 5).subs(t, 1)
    todd = (series(t / (1 - sympy.exp(-t)), t, 2) ** 2).subs(t, h1) * (
        series(t / (1 - sympy.exp(-t)), t, 4) ** 4
    ).subs(t, h3)
    integrand = sympy.Poly(sympy.expand(ch_e * twist * todd), h1, h3)
    chi = integrand.coeff_monomial(h1 * h3 ** 3)
    assert sympy.expand(_to_sympy(sympy, geometry.rr_polynomial()) - chi) == 0


def test_rr_polynomial_spot_values():
    p = geometry.rr_polynomial()
    assert p.value({"a": 0, "b": 0}) == -6
    assert p.value({"a": -2, "b": -4}) == 2


def test_classify_embeddings():
    expected = [(0, 1, 1), (2, 1, 2)]
    for cap in (2, 5, 10):
        assert geometry.classify_embeddings(cap) == expected
    with pytest.raises(InvalidParameterError):
        geometry.classify_embeddings(1)


def test_double_structure_solutions():
    s0 = geometry.double_structure_solve(0)
    assert (s0.x, s0.y, s0.d) == (2, -2, 4)
    s2 = geometry.double_structure_solve(2)
    assert (s2.x, s2.y, s2.d) == (2, 0, 4)
    with pytest.raises(InvalidParameterError):
        geometry.double_structure_solve(1)


def test_double_structure_identity_matches_the_hand_written_restrictions():
    # the restrictions to Sigma_0 (alpha, beta) = (1, 1) and to Sigma_2
    # (1, 2), written out by hand
    ring = chow.p1xp3()
    h1, h3 = ring.gen("h1"), ring.gen("h3")
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    x, y, d = ParamPoly.var("x"), ParamPoly.var("y"), ParamPoly.var("d")

    def chi_line(p, q):
        return chern.euler_characteristic(chern.line_bundle(p * h1 + q * h3))

    def chi_sigma(e, u, v):
        # chi(O(u C0 + v f)) on Sigma_e in closed form
        return (u + 1) * (v + 1 - Fraction(e, 2) * u)

    lines = chi_line(a - d + 2, b + 2) + chi_line(a + d, b + 2)
    reference = {
        0: lines
        - chi_sigma(0, x + b + 2, y + a + b + d + 2)
        - chi_sigma(0, b + 2, a + b + d + 2),
        2: lines
        - chi_sigma(2, x + b + 2, y + a + 2 * b + d + 4)
        - chi_sigma(2, b + 2, a + 2 * b + d + 4),
    }
    for e, assembled in reference.items():
        assert geometry.double_structure_identity(e) == assembled - geometry.rr_polynomial()


def test_double_structure_resubstitution():
    for e, sol in ((0, (2, -2, 4)), (2, (2, 0, 4))):
        identity = geometry.double_structure_identity(e)
        x, y, d = sol
        assert identity.subs({"x": x, "y": y, "d": d}).is_zero()


def test_prop54_obstruction():
    assert geometry.prop54_obstruction() is True


def test_subbundle_degree_criterion():
    assert geometry.subbundle_embeds(2, (0, 2))
    assert geometry.subbundle_embeds(0, (0, 2))
    assert not geometry.subbundle_embeds(4, (0, 2))
    assert not geometry.subbundle_embeds(4, (1, 1))


def test_normality_for_large_b():
    for a in range(0, 6):
        for b in range(3, 8):
            s = geometry.normality_status(a, b)
            assert s.normal and s.codim_bound == 0, (a, b)
    assert geometry.normality_status(0, 1).normal


def test_records_are_read_only():
    records = [(geometry.double_structure_solve(0), "x"), (geometry.normality_status(5, 2), "normal"),
               (claims.ClaimResult(True, "1", "1"), "ok")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_normality_bounds():
    assert geometry.normality_status(5, 2) == geometry.NormalityStatus(False, 6)
    assert geometry.normality_status(3, 0) == geometry.NormalityStatus(False, 6)
    # b = 2 bound is a + 1; b = 1 bound is 2a
    for a in range(1, 6):
        assert geometry.normality_status(a, 2).codim_bound == a + 1
        assert geometry.normality_status(a, 1).codim_bound == 2 * a
        if a >= 1:
            assert geometry.normality_status(a, 0).codim_bound == 3 * (a - 1)
    with pytest.raises(InvalidParameterError):
        geometry.normality_status(-1, 3)


def test_multiplication_surjectivity():
    for a in range(0, 7):
        for b in range(0, 7):
            assert geometry.multiplication_surjective(a, b)
    with pytest.raises(InvalidParameterError):
        geometry.multiplication_surjective(-1, 2)


def test_splitting_from_sections():
    assert geometry.splitting_from_sections(4, {2: 1, 3: 0}) == (2, 2)
    assert geometry.splitting_from_sections(2, {1: 1, 2: 0}) == (1, 1)
    assert geometry.splitting_from_sections(4, {4: 1, 5: 0}) == (4, 0)


def test_splitting_invariants():
    for c1, data in [(4, {2: 1}), (2, {1: 2}), (4, {4: 1}), (0, {3: 1})]:
        a, b = geometry.splitting_from_sections(c1, data)
        assert a + b == c1
        assert a >= b


def test_splitting_errors():
    with pytest.raises(InconsistentError):
        geometry.splitting_from_sections(4, {0: 0, 1: 0})
    with pytest.raises(InconsistentError):
        geometry.splitting_from_sections(4, {1: 1, 2: 0})


def test_jumping_divisor_degree_is_constant_four():
    for r in (1, 2, 3):
        deg = geometry.jumping_divisor_degree(r)
        assert deg.is_constant(), r
        assert deg == ParamPoly.const(4), r
    with pytest.raises(InvalidParameterError):
        geometry.jumping_divisor_degree(0)


def test_degree_four_consistency_with_positive_instance():
    # the pencil degree found by the solver matches the bidegree (4, 2)
    # hypersurface instance used by the stability oracle
    from p1p3bundle import stability
    d = geometry.double_structure_solve(0).d
    assert (d, 2) in stability.POSITIVE_INSTANCES
    assert stability.subsheaf_status(d, 2) == "yes"
