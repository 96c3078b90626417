import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1p3bundle import chern, chow
from p1p3bundle.errors import DegreeMismatchError, InvalidParameterError, RingMismatchError
from p1p3bundle.poly import ParamPoly


def _basis_classes(ring):
    return [ring.gen(name) if name != "1" else ring.one() for name in ring.basis]


@pytest.mark.parametrize("ring", [chow.p1(), chow.p3(), chow.p1xp3(), chow.p1xp1(),
                                  chow.sigma(0), chow.sigma(2), chow.sigma(5)])
def test_ring_axioms_exhaustive_on_basis(ring):
    elems = _basis_classes(ring)
    for x, y in itertools.product(elems, repeat=2):
        assert x * y == y * x
        assert x * (y + y) == x * y + x * y
    for x, y, z in itertools.product(elems, repeat=3):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
    one = ring.one()
    for x in elems:
        assert one * x == x


def test_p1xp3_relations():
    ring = chow.p1xp3()
    h1, h3 = ring.gen("h1"), ring.gen("h3")
    assert (h1 * h1).is_zero()
    assert (h3 ** 4).is_zero()
    assert chow.degree(h1 * h3 ** 3) == ParamPoly.const(1)
    assert chow.degree(h3 ** 3).is_zero()


def test_canonical_classes():
    p = chow.p1xp3()
    assert p.canonical == -2 * p.gen("h1") - 4 * p.gen("h3")
    s0 = chow.sigma(0)
    assert s0.canonical == -2 * s0.gen("C0") - 2 * s0.gen("f")
    s2 = chow.sigma(2)
    assert s2.canonical == -2 * s2.gen("C0") - 4 * s2.gen("f")


def test_sigma_intersection_numbers():
    for e in (0, 1, 2, 3):
        s = chow.sigma(e)
        c0, f = s.gen("C0"), s.gen("f")
        assert chow.degree(c0 * c0) == ParamPoly.const(-e)
        assert chow.degree(c0 * f) == ParamPoly.const(1)
        assert chow.degree(f * f).is_zero()


def test_sigma_rejects_negative_e():
    with pytest.raises(InvalidParameterError):
        chow.sigma(-1)


def test_ring_mismatch_raises():
    a = chow.p1().gen("h")
    b = chow.p3().gen("h")
    with pytest.raises(RingMismatchError):
        a + b


def test_tangent_chern_of_p1xp3():
    ring = chow.p1xp3()
    t = ring.tangent_chern
    assert t.coeff("h1") == ParamPoly.const(2)
    assert t.coeff("h3") == ParamPoly.const(4)


def test_restrict_fiber_horizontal():
    ring = chow.p1xp3()
    x = 2 * ring.gen("h1") + 4 * ring.gen("h3") + ring.gen("h3") ** 2
    r = chow.pullback(x, (chow.p3().zero(), chow.p3().gen("h")))
    assert r.ring is chow.p3()
    assert r.coeff("h") == ParamPoly.const(4)
    assert r.coeff("h^2") == ParamPoly.const(1)


def test_restrict_fiber_vertical():
    ring = chow.p1xp3()
    x = 3 * ring.gen("h1") + 5 * ring.gen("h3")
    r = chow.pullback(x, (chow.p1().gen("h"), chow.p1().zero()))
    assert r.ring is chow.p1()
    assert r.coeff("h") == ParamPoly.const(3)


def test_restrict_to_p1xline():
    ring = chow.p1xp3()
    x = 2 * ring.gen("h1") + 4 * ring.gen("h3") + 7 * ring.gen("h3") ** 2
    r = chow.pullback(x, (chow.p1xp1().gen("h1"), chow.p1xp1().gen("h2")))
    assert r.ring is chow.p1xp1()
    assert r.coeff("h1") == ParamPoly.const(2)
    assert r.coeff("h2") == ParamPoly.const(4)
    # classes of codimension >= 2 in the P3 factor die on a line
    assert r.coeff("h1*h2").is_zero()


def _inclusions():
    """The P1xP3 pullbacks the checks use: a fiber {t} x P3, a vertical line
    P1 x {x}, P1 x (line), and the embedded Sigma_0 and Sigma_2 with
    h1 -> alpha f, h3 -> C0 + beta f for (alpha, beta) = (1, 1), (1, 2)."""
    p3, p1, p1xp1 = chow.p3(), chow.p1(), chow.p1xp1()
    maps = {
        "fiber": (p3.zero(), p3.gen("h")),
        "vertical line": (p1.gen("h"), p1.zero()),
        "P1 x line": (p1xp1.gen("h1"), p1xp1.gen("h2")),
    }
    for e, beta in ((0, 1), (2, 2)):
        c0, f = chow.sigma(e).gen("C0"), chow.sigma(e).gen("f")
        maps["Sigma_%d" % e] = (f, c0 + beta * f)
    return maps


_numbers = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


def _is_scalar(x):
    """Every coefficient of x is a plain number, none a ParamPoly."""
    return all(isinstance(c, (int, Fraction)) for c in x.coeffs.values())


@st.composite
def _p1xp3_classes(draw):
    # each basis coefficient is u + v t with a small number u, a small int v
    # and a formal t, or in an all-scalar class the plain number u
    ring, t = chow.p1xp3(), ParamPoly.var("t")
    scalar = draw(st.booleans())
    out = ring.zero()
    for m in ring.monomials:
        u = draw(_numbers)
        out = out + chow.GradedClass(ring, {m: u if scalar else u + draw(st.integers(-2, 2)) * t})
    return out


@settings(max_examples=60, deadline=None)
@given(_p1xp3_classes(), _p1xp3_classes(), st.sampled_from(sorted(_inclusions())))
def test_pullback_respects_one_sum_and_product(x, y, name):
    images = _inclusions()[name]
    target = images[0].ring
    assert chow.pullback(chow.p1xp3().one(), images) == target.one()
    assert chow.pullback(x + y, images) == chow.pullback(x, images) + chow.pullback(y, images)
    assert chow.pullback(x * y, images) == chow.pullback(x, images) * chow.pullback(y, images)
    if _is_scalar(x) and _is_scalar(y):  # numbers stay numbers through every operation
        assert all(_is_scalar(z) for z in (x + y, x * y, chow.pullback(x * y, images)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_numbers, min_size=8, max_size=8),
       st.lists(st.integers(-2, 2), min_size=8, max_size=8))
def test_coefficients_have_one_canonical_form(us, vs):
    ring, t = chow.p1xp3(), ParamPoly.var("t")
    plain = ring.cls(dict(zip(ring.basis, us)))
    wrapped = ring.cls({name: ParamPoly.const(u) for name, u in zip(ring.basis, us)})
    cancelled = ring.cls({name: u + v * t - v * t for name, u, v in zip(ring.basis, us, vs)})
    for x in (wrapped, cancelled):
        assert x == plain and hash(x) == hash(plain) and str(x) == str(plain)
        assert _is_scalar(x)
    assert all(plain.coeff(name) == ParamPoly.const(u) for name, u in zip(ring.basis, us))
    formal = ring.cls({name: u + v * t for name, u, v in zip(ring.basis, us, vs)})
    assert (formal - formal).is_zero() and formal - t * ring.cls(dict(zip(ring.basis, vs))) == plain


@settings(max_examples=60, deadline=None)
@given(_numbers)
def test_a_scalar_class_hashes_as_its_number(u):
    ring, t = chow.p1xp3(), ParamPoly.var("t")
    for x, value in ((u * ring.one(), u), (t * ring.one(), t), (u + 0 * ring.gen("h1"), u)):
        assert x == value and hash(x) == hash(value)
        assert len({x, value}) == 1


def test_floats_are_rejected_where_a_coefficient_enters():
    ring = chow.p1xp3()
    h1 = ring.gen("h1")
    entries = [lambda: ParamPoly.const(0.1), lambda: ParamPoly.const("1/2"),
               lambda: ring.cls({"h1": 0.5}), lambda: ring.cls({"h1": "1/2"}),
               lambda: 0.5 * h1, lambda: h1 * 0.5, lambda: h1 + 0.5, lambda: 0.5 + h1,
               lambda: h1 - 0.5, lambda: 0.5 - h1,
               # a bool is no number either
               lambda: ring.cls({"h1": True}), lambda: True * h1, lambda: h1 + True,
               lambda: h1 - False, lambda: chern.BundleSymbol(chow.p3(), True),
               lambda: h1 ** True, lambda: chow.sigma(True)]
    for entry in entries:
        with pytest.raises(InvalidParameterError):
            entry()
    assert h1 != 0.5 and ring.one() != 1.0  # a float is never a coefficient, so never equal
    assert ring.one() != True and not ring.one() == True  # nor is a bool


def test_pullback_rejects_images_that_do_not_fit():
    x = chow.p1xp3().gen("h1")
    p1, p3 = chow.p1(), chow.p3()
    with pytest.raises(RingMismatchError):
        chow.pullback(x, (p3.gen("h"),))
    with pytest.raises(RingMismatchError):
        chow.pullback(x, (p3.gen("h"), p3.gen("h"), p3.gen("h")))
    with pytest.raises(RingMismatchError):
        chow.pullback(x, (p1.gen("h"), p3.gen("h")))
    with pytest.raises(DegreeMismatchError):
        chow.pullback(x, (p3.zero(), p3.gen("h^2")))
    with pytest.raises(DegreeMismatchError):
        chow.pullback(x, (p3.zero(), p3.one() + p3.gen("h")))


def test_pullback_rejects_images_that_break_the_relations():
    # on Sigma_2, C0^2 = -2 C0.f, but on P1xP1 h1^2 = 0 while h1*h2 != 0
    p1xp1 = chow.p1xp1()
    with pytest.raises(RingMismatchError, match="relation of generator 0 of Sigma"):
        chow.pullback(chow.sigma(2).gen("C0"), (p1xp1.gen("h1"), p1xp1.gen("h2")))
    # the inclusions the package uses satisfy every relation
    for images in _inclusions().values():
        assert chow.pullback(chow.p1xp3().gen("h3") ** 3, images).ring is images[0].ring
    assert chow.pullback(chow.p1().gen("h"), (p1xp1.gen("h1"),)) == p1xp1.gen("h1")


def test_graded_parts():
    ring = chow.p1xp3()
    x = ring.one() + ring.gen("h1") + ring.gen("h3") ** 2
    assert x.graded_part(0) == ring.one()
    assert x.graded_part(1) == ring.gen("h1")
    assert x.graded_part(2) == ring.gen("h3") ** 2
    assert not x.is_homogeneous(1)
    assert ring.gen("h1").is_homogeneous(1)


def test_param_poly_coefficients():
    ring = chow.p1xp3()
    a = ParamPoly.var("a")
    x = a * ring.gen("h1")
    y = x * ring.gen("h3") ** 3
    assert chow.degree(y) == a


@pytest.mark.parametrize("ring, basis", [
    (chow.p1(), ("1", "h")),
    (chow.p3(), ("1", "h", "h^2", "h^3")),
    (chow.p1xp3(), ("1", "h1", "h3", "h1*h3", "h3^2", "h1*h3^2", "h3^3", "h1*h3^3")),
    (chow.p1xp1(), ("1", "h1", "h2", "h1*h2")),
    (chow.sigma(3), ("1", "C0", "f", "pt")),
])
def test_display_names_and_point(ring, basis):
    assert ring.basis == basis
    assert ring.point == basis[-1]
    assert ring.canonical == -ring.tangent_chern.graded_part(1)


def test_sigma_rewrite_rule():
    s = chow.sigma(4)
    c0, f = s.gen("C0"), s.gen("f")
    assert c0 * c0 == -4 * s.gen("pt")
    assert str(3 * c0 * f - c0 * c0) == "7*pt"
    assert (c0 * c0 * f).is_zero()


def test_unknown_monomial_names():
    ring = chow.p1xp1()
    with pytest.raises(InvalidParameterError):
        ring.gen("h3")
    with pytest.raises(InvalidParameterError):
        ring.cls({"h1^2": 1})


def test_coeff_rejects_misspelt_names():
    ring = chow.p1xp1()
    x = ring.gen("h1")
    for misspelt in ("h3", "h1h2", "h2*h1", ""):
        with pytest.raises(InvalidParameterError):
            x.coeff(misspelt)
    assert x.coeff("h2").is_zero()  # a basis monomial absent from x
