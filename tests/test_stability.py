import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1p3bundle import chow, claims, cli, stability
from p1p3bundle.errors import InconsistentError, InvalidParameterError
from p1p3bundle.poly import ParamPoly


def test_polarization_requires_positive_entries():
    with pytest.raises(InvalidParameterError, match=r"O\(m,n\) is ample only for m > 0, n > 0"):
        stability.Polarization(0, 1)
    with pytest.raises(InvalidParameterError, match="ample only"):
        stability.Polarization(1, -2)


def test_polarization_is_read_only():
    pol = stability.Polarization(2, 3)
    with pytest.raises(AttributeError):
        pol.m = 1
    with pytest.raises(InvalidParameterError, match="ample only"):
        pol._replace(n=0)
    with pytest.raises(InvalidParameterError, match="expected ints"):
        pol._replace(m=0.1)
    assert pol._replace(m=5) == stability.Polarization(5, 3)
    assert repr(pol) == "Polarization(m=2, n=3)"


def test_non_int_parameters_are_rejected():
    # O(0.1, 1.8) reads as n = 18m, on the boundary, but the binary floats are
    # other rationals, and float arithmetic would call it stable
    for m, n in [(0.1, 1.8), (0.1, 1), (1, 2.0), (Fraction(1), 1), (True, 1)]:
        with pytest.raises(InvalidParameterError, match="expected ints"):
            stability.Polarization(m, n)
    for line in [(1, 2.0), (0.5, 2), (Fraction(1), 2)]:
        with pytest.raises(InvalidParameterError):
            stability.slope_dot(line, stability.Polarization(1, 1))


def test_slope_examples():
    h = stability.Polarization(1, 1)
    assert stability.slope_dot((1, 2), h).constant() == 7
    assert stability.slope_dot((1, 0), h).constant() == 1
    assert stability.slope_dot((0, 1), h).constant() == 3
    mn = stability.Polarization(3, 2)
    # a*n^3 + 3*b*m*n^2 at (a,b) = (2,-4), (m,n) = (3,2)
    assert stability.slope_dot((2, -4), mn).constant() == 2 * 8 - 12 * 3 * 4


def test_slope_additivity_in_line_argument():
    pol = stability.Polarization(2, 5)
    for a1, b1, a2, b2 in [(1, 2, -3, 4), (0, 0, 7, -1), (5, -5, -5, 5)]:
        lhs = stability.slope_dot((a1 + a2, b1 + b2), pol).constant()
        rhs = (stability.slope_dot((a1, b1), pol) + stability.slope_dot((a2, b2), pol)).constant()
        assert lhs == rhs


def test_slope_is_the_degree_in_the_chow_ring():
    ring = chow.p1xp3()
    h1, h3 = ring.gen("h1"), ring.gen("h3")
    rng = random.Random(7)
    for k in range(300):
        bits = 120 if k % 3 == 0 else 6  # every third point has wide ints
        a, b = (rng.randint(-2 ** bits, 2 ** bits) for _ in range(2))
        m, n = (rng.randint(1, 2 ** bits) for _ in range(2))
        got = stability.slope_dot((a, b), stability.Polarization(m, n))
        assert got == chow.degree((a * h1 + b * h3) * (m * h1 + n * h3) ** 3), (a, b, m, n)
        assert type(got.constant()) is int


def test_slope_dot_makes_no_polynomial_product(monkeypatch):
    pol = stability.Polarization(3, 2)
    stability.slope_dot((1, 1), pol)  # reads the slope form
    calls = []
    for name in ("__mul__", "__rmul__", "value"):
        f = getattr(ParamPoly, name)
        monkeypatch.setattr(ParamPoly, name,
                            lambda self, other, f=f, name=name: calls.append(name) or f(self, other))
    for k in range(1000):
        stability.slope_dot((k % 61 - 30, k % 59 - 29), pol)
    assert calls == []


def test_slope_answer_builds_no_fraction(monkeypatch):
    # constant() hands back the int the polynomial holds, so a warm slope
    # query (as `calc slope` prints it) constructs no Fraction at all
    pol = stability.Polarization(3, 2)
    stability.slope_dot((1, 1), pol)  # reads the slope form
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert stability.slope_dot((1, 2), pol).constant() == 2 * 2 * (2 + 3 * 2 * 3)
    assert ParamPoly.const(7).constant() == 7
    assert built == []


def test_subsheaf_status_cases():
    assert stability.subsheaf_status(0, 7) == "no"
    assert stability.subsheaf_status(2, 2) == "no"
    assert stability.subsheaf_status(-1, 5) == "no"
    assert stability.subsheaf_status(1, 1) == "no"
    assert stability.subsheaf_status(4, 2) == "yes"
    assert stability.subsheaf_status(0, 8) == "yes"
    assert stability.subsheaf_status(2, 4) == "yes"
    assert stability.subsheaf_status(3, 2) == "unknown"


def test_positive_instances_never_contradict_vanishing():
    for p, q in stability.POSITIVE_INSTANCES:
        assert stability.subsheaf_status(p, q) == "yes"


def test_destabilizer_corners():
    P, Q = stability._det()  # read off c1(E)
    assert (P, Q) == (2, 4)
    corners = stability.destabilizer_corners()
    assert len(corners) == 3
    assert (2, -4) in corners
    assert (-1, 2) in corners
    assert (1, 1) in corners
    # a nonzero map O(a,b) -> E forces a hypersurface through the surface
    for a, b in corners:
        assert stability.subsheaf_status(P - a, Q - b) != "no"


def test_destabilizer_corners_come_from_the_oracle(monkeypatch):
    calls = []
    real = stability.subsheaf_status

    def counting(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(stability, "subsheaf_status", counting)
    stability.destabilizer_corners.cache_clear()
    try:
        corners = stability.destabilizer_corners()
        scanned = len(calls)
        assert stability.destabilizer_corners() is corners  # memoised: no second scan
    finally:
        stability.destabilizer_corners.cache_clear()
    assert scanned > 0 and len(calls) == scanned
    assert set(corners) == {(1, 1), (-1, 2), (2, -4)}


def test_stability_decisions():
    assert stability.stability_decide(stability.Polarization(1, 1)) == "stable"
    assert stability.stability_decide(stability.Polarization(1, 18)) == "semistable_not_stable"
    assert stability.stability_decide(stability.Polarization(1, 19)) == "unstable"
    assert stability.stability_decide(stability.Polarization(2, 36)) == "semistable_not_stable"


def test_stability_decide_evaluates_no_polynomial(monkeypatch):
    stability.stability_decide(stability.Polarization(1, 1))  # derives the gap forms
    calls = []
    value, const = ParamPoly.value, ParamPoly.const
    monkeypatch.setattr(ParamPoly, "value",
                        lambda self, point: calls.append(point) or value(self, point))
    monkeypatch.setattr(ParamPoly, "const", staticmethod(lambda value: calls.append(value) or const(value)))
    assert stability.stability_decide(stability.Polarization(3, 54)) == "semistable_not_stable"
    assert stability.stability_decide(stability.Polarization(3, 53)) == "stable"
    assert stability.stability_decide(stability.Polarization(3, 55)) == "unstable"
    assert calls == []


def test_gap_forms_are_read_off_the_slope_polynomial():
    # 2 slope(c) - slope(det E); only (2, -4) has a witness, the octic (0, 8)
    assert stability.gap_forms() == ((2, -36, True), (0, -6, False), (-4, 0, False))
    assert stability.stable_ratio() == 18


_boundary = st.integers(1, 10 ** 6 // 18).map(lambda m: (m, 18 * m))
_quadrant = st.tuples(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_boundary, _boundary, _quadrant))  # two draws in three on n = 18m
def test_stability_decide_matches_corner_slopes(point):
    pol = stability.Polarization(*point)
    threshold = stability.slope_dot(stability._det(), pol).constant()
    best = 2 * max(stability.slope_dot(c, pol).constant() for c in stability.destabilizer_corners())
    want = ("stable" if best < threshold else
            "semistable_not_stable" if best == threshold else "unstable")
    assert stability.stability_decide(pol) == want


_WRONG_SLOPES = [
    lambda a, b, m, n: a * n ** 3 + b * m * m * n * n,  # n^2 times a quadratic form
    lambda a, b, m, n: Fraction(1, 3) * a * n ** 3 + 3 * b * m * n ** 2,  # u = 2/3
]


@pytest.mark.parametrize("slope", _WRONG_SLOPES)
def test_gap_forms_reject_a_gap_that_is_not_an_integer_linear_form(monkeypatch, slope):
    a, b, m, n = (ParamPoly.var(x) for x in "abmn")
    monkeypatch.setattr(stability, "_slope_poly", lambda: slope(a, b, m, n))
    stability.gap_forms.cache_clear()
    stability._slope_form.cache_clear()
    try:
        with pytest.raises(InconsistentError):
            stability.gap_forms()
    finally:
        stability.gap_forms.cache_clear()
        stability._slope_form.cache_clear()


@pytest.mark.parametrize("slope", _WRONG_SLOPES + [
    lambda a, b, m, n: a * n ** 3 + 3 * b * m * n ** 2 + a * b,  # one term more
], ids=["quadratic-in-m", "u=1/3", "extra-term"])
def test_slope_form_rejects_a_slope_of_another_shape(monkeypatch, slope):
    a, b, m, n = (ParamPoly.var(x) for x in "abmn")
    monkeypatch.setattr(stability, "_slope_poly", lambda: slope(a, b, m, n))
    stability._slope_form.cache_clear()
    try:
        with pytest.raises(InconsistentError, match="is not u a n"):
            stability.slope_dot((1, 1), stability.Polarization(1, 1))
    finally:
        stability._slope_form.cache_clear()


def test_stable_ratio_is_the_lowest_ray(monkeypatch):
    forms = ((2, -3, True), (1, -18, False), (0, -1, False), (-1, 0, False))
    monkeypatch.setattr(stability, "gap_forms", lambda: forms)
    assert stability.stable_ratio() == Fraction(3, 2)
    # a witnessed form on the lowest ray is enough, whatever else lies on it
    monkeypatch.setattr(stability, "gap_forms", lambda: ((4, -6, False),) + forms)
    assert stability.stable_ratio() == Fraction(3, 2)
    monkeypatch.setattr(stability, "gap_forms", lambda: ((0, -3, False), (-2, 0, False)))
    assert stability.stable_ratio() is None


def test_stable_ratio_needs_a_witness_on_the_lowest_ray(monkeypatch):
    monkeypatch.setattr(stability, "gap_forms", lambda: ((2, -3, False), (1, -18, True)))
    with pytest.raises(InconsistentError, match="no witnessed destabilizer lies on the ray"):
        stability.stable_ratio()


def test_only_a_witnessed_form_can_destabilize(monkeypatch):
    monkeypatch.setattr(stability, "gap_forms", lambda: ((2, -36, False), (0, -6, True)))
    assert stability.stability_decide(stability.Polarization(1, 17)) == "stable"
    for n in (18, 19):
        with pytest.raises(InconsistentError, match="no witnessed destabilizer attains"):
            stability.stability_decide(stability.Polarization(1, n))


def test_remark33_fails_without_the_octic_witness(monkeypatch, capsys):
    real = stability.subsheaf_status
    monkeypatch.setattr(stability, "subsheaf_status",
                        lambda p, q: "unknown" if (p, q) == (0, 8) else real(p, q))
    stability.gap_forms.cache_clear()
    try:
        assert cli.main(["verify", "--claim", "remark3.3", "--json"]) == 1
    finally:
        stability.gap_forms.cache_clear()
    (record,) = json.loads(capsys.readouterr().out)["claims"]
    assert record["status"] == "FAIL"
    assert record["computed"] == (
        "InconsistentError: no witnessed destabilizer lies on the ray n = 18 m")


@pytest.mark.parametrize("forms", [((1, 2),), ((-1, 1),), ((1, 0),), ((0, 0),), ((1, -18), (0, 1))])
def test_stable_ratio_rejects_forms_that_break_the_cone(monkeypatch, forms):
    monkeypatch.setattr(stability, "gap_forms", lambda: tuple((u, v, True) for u, v in forms))
    with pytest.raises(InconsistentError):
        stability.stable_ratio()


def test_remark33_reports_a_ratio_other_than_18(monkeypatch):
    forms = ((1, -17, True), (0, -3, False), (-2, 0, False))
    monkeypatch.setattr(stability, "gap_forms", lambda: forms)
    result = claims.get_claim("remark3.3").check()
    assert not result.ok
    assert result.computed.startswith("violations=[('n < r*m', Fraction(17, 1)), ")
    assert result.expected == "violations=[]"


def test_stability_region_grid():
    for m in range(1, 41):
        for n in range(1, 41):
            got = stability.stability_decide(stability.Polarization(m, n))
            if n < 18 * m:
                assert got == "stable", (m, n)
            elif n == 18 * m:
                assert got == "semistable_not_stable", (m, n)
            else:
                assert got == "unstable", (m, n)


def test_corner_argmax_identity():
    corners = stability.destabilizer_corners()

    def argmax(pol):
        best = max(corners, key=lambda c: stability.slope_dot(c, pol).constant())
        return best

    for m in range(1, 11):
        for n in (18 * m, 18 * m + 1, 20 * m, 40 * m):
            assert argmax(stability.Polarization(m, n)) == (2, -4), (m, n)
        for n in range(1, 18 * m, 3):
            # every corner stays strictly below the half-determinant slope
            pol = stability.Polarization(m, n)
            threshold = stability.slope_dot((1, 2), pol).constant()
            assert all(
                stability.slope_dot(c, pol).constant() < threshold for c in corners
            ), (m, n)
