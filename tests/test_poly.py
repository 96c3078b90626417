import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p1p3bundle.pencilfile import MAX_DEGREE
from p1p3bundle.errors import InvalidParameterError, SolverError
from p1p3bundle.poly import (
    ParamPoly,
    _c_gcd,
    _c_root_count,
    _int_rank,
    _pack,
    _packing_shift,
    _signed_digits,
    rref,
    solve_zero_identity,
)


def test_basic_arithmetic():
    a = ParamPoly.var("a")
    b = ParamPoly.var("b")
    left = (a + b) ** 2
    right = a * a + 2 * a * b + b * b
    assert left == right
    assert (a - a).is_zero()
    assert (a * 0).is_zero()


def test_constants_and_fractions():
    p = ParamPoly.const(Fraction(1, 2)) + ParamPoly.const(Fraction(1, 3))
    assert p.constant() == Fraction(5, 6)
    q = Fraction(2, 3) * ParamPoly.var("x")
    assert q.value({"x": 3}) == 2


def test_subs_and_evaluate():
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    p = a * a * b + 2 * a - 5
    assert p.value({"a": 3, "b": 4}) == 36 + 6 - 5
    partial = p.subs({"a": 2})
    assert partial == 4 * b - 1
    assert p.subs({"a": Fraction(1, 2)}) == Fraction(1, 4) * b - 4
    assert p.subs({"b": 0}) == 2 * a - 5 and p.subs({"c": 7}) == p
    assert partial.subs({"b": 1}) == 3 == p.value({"a": 2, "b": 1})


def test_subs_takes_numbers_only():
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    p = a * b + 1
    for value in (b + 1, ParamPoly.const(2), 0.5, 2.0, "2"):
        with pytest.raises(InvalidParameterError):
            p.subs({"a": value})
    with pytest.raises(InvalidParameterError):
        p.subs({"a": 1, "c": 0.5})  # a variable p does not have


def test_string_form_is_canonical():
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    p = b + a
    q = a + b
    assert str(p) == str(q)
    assert str(ParamPoly.const(0)) == "0"


def test_collect_groups_free_variables():
    a, x = ParamPoly.var("a"), ParamPoly.var("x")
    p = (x - 3) * a + ParamPoly.const(7)
    groups = p.collect(("a",))
    # two groups: the coefficient of a and the constant part
    assert len(groups) == 2


def test_solve_zero_identity_unique():
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    x, y, d = ParamPoly.var("x"), ParamPoly.var("y"), ParamPoly.var("d")
    identity = (x - 3) * a + (y + 1) * b + (d - 2)
    sols = solve_zero_identity(identity, ("x", "y", "d"))
    assert sols == [{"x": 3, "y": -1, "d": 2}]


def test_solve_zero_identity_has_no_search_box():
    a, x = ParamPoly.var("a"), ParamPoly.var("x")
    assert solve_zero_identity((x - 20) * a, ("x",)) == [{"x": 20}]


def test_solve_zero_identity_works_over_q():
    a, x = ParamPoly.var("a"), ParamPoly.var("x")
    assert solve_zero_identity((2 * x - 1) * a, ("x",)) == [{"x": Fraction(1, 2)}]


def test_solve_zero_identity_triangular_needs_two_rounds():
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    x, y = ParamPoly.var("x"), ParamPoly.var("y")
    # x*y - 6 is nonlinear until x = 3 is substituted
    identity = (x - 3) * a + (x * y - 6) * b
    assert solve_zero_identity(identity, ("x", "y")) == [{"x": 3, "y": 2}]


_a, _b = ParamPoly.var("a"), ParamPoly.var("b")
_x, _y = ParamPoly.var("x"), ParamPoly.var("y")


@pytest.mark.parametrize("identity, unknowns", [
    ((_x - 1) * _a + (_x - 2) * _b, ("x",)),  # inconsistent: x = 1 and x = 2
    ((_x + _y) * _a, ("x", "y")),  # underdetermined: only x + y is pinned
    ((_x * _x - 4) * _a, ("x",)),  # no equation of degree <= 1
    # x = 1 is forced, but the coefficient of b re-substitutes to -3
    ((_x - 1) * _a + (_x * _x - 4) * _b, ("x",)),
], ids=["inconsistent", "underdetermined", "nonlinear", "resubstitution"])
def test_solve_zero_identity_rejects(identity, unknowns):
    with pytest.raises(SolverError):
        solve_zero_identity(identity, unknowns)


# -- ring axioms of ParamPoly ------------------------------------------------------

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _polys(draw, names=("a", "b", "c")):
    """Sparse polynomials of degree <= 2 in each of `names`."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = draw(st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)))
        mono = tuple((v, e) for v, e in zip(names, exps) if e)
        terms[mono] = draw(_coeffs)
    return ParamPoly(terms)


@settings(max_examples=100, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p and p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero() and p * 1 == p and p + 0 == p
    assert hash(p * q) == hash(q * p)


@settings(max_examples=100, deadline=None)
@given(_polys(), _polys(), _polys(("b", "c")), st.lists(_coeffs, min_size=3, max_size=3))
def test_subs_and_evaluate_are_homomorphisms(p, q, s, values):
    point = dict(zip("abc", values))
    assert (p + q).value(point) == p.value(point) + q.value(point)
    assert (p * q).value(point) == p.value(point) * q.value(point)
    # substituting a number for a, then values for b and c
    sub = {"a": s.value(point)}
    assert (p + q).subs(sub) == p.subs(sub) + q.subs(sub)
    assert (p * q).subs(sub) == p.subs(sub) * q.subs(sub)
    assert p.subs(sub).value(point) == p.value(dict(point, **sub))
    assert p.subs(point) == ParamPoly.const(p.value(point))


@settings(max_examples=100, deadline=None)
@given(_polys(), st.lists(st.one_of(st.integers(-5, 5), _coeffs), min_size=3, max_size=3))
def test_evaluate_returns_the_fraction_of_subs(p, values):
    # constant() returns the number held: an int where it is integral, a
    # Fraction only where it has a denominator
    point = dict(zip("abc", values))
    value = p.subs(point).constant()
    assert value == p.value(point)
    assert type(value) is (int if value.denominator == 1 else Fraction)
    integral = ParamPoly({m: c.numerator for m, c in p.terms.items()})
    int_point = {x: v.numerator for x, v in point.items()}
    assert type(integral.subs(int_point).constant()) is int


_MONOS = ((), (("a", 1),), (("a", 1), ("b", 2)), (("c", 3),))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4), _polys())
def test_coefficients_have_one_canonical_form(ns, p):
    plain = ParamPoly(dict(zip(_MONOS, ns)))
    wrapped = ParamPoly({m: Fraction(n) for m, n in zip(_MONOS, ns)})
    built = sum((ParamPoly.const(Fraction(n)) * ParamPoly({m: Fraction(1)})
                 for m, n in zip(_MONOS, ns)), ParamPoly.const(Fraction(0)))
    cancelled = plain + p - p
    rescaled = plain * Fraction(1, 3) * 3
    for x in (plain, wrapped, built, cancelled, rescaled):
        assert x == plain and hash(x) == hash(plain) and str(x) == str(plain)
        assert all(type(c) is int for c in x.terms.values())
    point = {"a": 2, "b": -1, "c": 3}
    for m, n in zip(_MONOS, ns):
        assert type(plain.coefficient(m)) is int and plain.coefficient(m) == n
        assert type(ParamPoly.const(n).constant()) is int
    assert type(plain.value(point)) is int
    assert type((plain + Fraction(1, 2)).value(point)) is Fraction
    monomials = [ParamPoly({m: 1}).value(point) for m in _MONOS]
    assert plain.value(point) == sum(n * v for n, v in zip(ns, monomials))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-10, 10), _coeffs), _polys())
def test_equal_polynomials_hash_equal(n, p):
    # a constant polynomial equals its number, so sets and dicts take it as one
    assert ParamPoly.const(n) == n and hash(ParamPoly.const(n)) == hash(n)
    assert len({ParamPoly.const(n), n}) == 1
    assert hash(p + n - p) == hash(n)


def test_floats_are_rejected():
    a = ParamPoly.var("a")
    for entry in (lambda: ParamPoly.const(0.5), lambda: ParamPoly.const(0.0),
                  lambda: ParamPoly({(): 0.5}), lambda: ParamPoly({(): "1/2"}),
                  lambda: a.subs({"a": 0.5}), lambda: a.value({"a": 0.5}),
                  lambda: rref([[1, 0.5]]),
                  # a bool is no number either
                  lambda: ParamPoly.const(True), lambda: ParamPoly({(): False}),
                  lambda: a.subs({"a": True}), lambda: rref([[1, True]]),
                  lambda: a * True, lambda: True * a, lambda: a.value({"a": True}),
                  lambda: a ** True):
        with pytest.raises(InvalidParameterError):
            entry()
    for entry in (lambda: a + 0.5, lambda: 0.5 - a, lambda: a * 0.5, lambda: 0.5 * a):
        with pytest.raises(TypeError):
            entry()
    assert a != 0.5 and ParamPoly.const(1) != 1.0
    # equality answers a bool as unequal, as it answers a float
    one = ParamPoly.const(1)
    assert (a == True, a != False, one == True, True in {one}) == (False, True, False, False)
    assert one == 1 and not (a == 0.5)


def test_rref_returns_fractions_for_int_input():
    rank, pivots, reduced = rref([[2, 1], [4, 4]])
    assert (rank, pivots, reduced) == (2, [0, 1], [[1, 0], [0, 1]])
    assert all(type(x) is Fraction for row in reduced for x in row)
    _, _, reduced = rref([[2, 1, 1]])
    assert reduced == [[1, Fraction(1, 2), Fraction(1, 2)]]


def test_rref_and_kernel_over_fractions():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    rank, pivots, reduced = rref(rows)
    assert rank == 2 and pivots == [0, 1]
    # the kernel vector from the free column 2 of the reduced rows
    v = [-reduced[0][2], -reduced[1][2], 1]
    assert v == [-1, -1, 1]
    for row in rows:
        assert sum(row[j] * v[j] for j in range(3)) == 0


# -- fraction-free rank over Z[x] -------------------------------------------------


def _list_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _list_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _list_trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _packed_rank(matrix):
    """Rank over Q(x) of a matrix over Z[x] as the Bareiss rank of the
    integer matrix packed at x = 2^b, the way a pencil computes its rank."""
    entries = [e for row in matrix for e in row]
    height = max([abs(c) for e in entries for c in e] + [1])
    length = max([len(e) for e in entries] + [1])
    order = min(len(matrix), len(matrix[0]) if matrix else 0)
    shift = _packing_shift(height, length, order)
    return _int_rank([[_pack(e, shift) for e in row] for row in matrix])


@st.composite
def _z_matrices(draw, coefficients):
    """1-4 x 1-4 matrices over Z[x] built as sums of 0-4 rank-one products
    u.v^T, so deficient ranks, zero rows and zero columns all occur."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    poly = st.lists(coefficients, max_size=3)
    matrix = [[[] for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 4))):
        u = draw(st.lists(poly, min_size=nrows, max_size=nrows))
        v = draw(st.lists(poly, min_size=ncols, max_size=ncols))
        for i in range(nrows):
            for j in range(ncols):
                matrix[i][j] = _list_add(matrix[i][j], _list_mul(u[i], v[j]))
    return [[_list_trim(e) for e in row] for row in matrix]


def _pointwise_rank(matrix):
    """Rank over the rational-function field Q(x) as the largest rref rank of
    the matrix evaluated at 4*deg + 1 integer points: a nonzero r x r minor
    (r <= 4) has degree <= 4*deg, so it is nonzero at one of them."""
    deg = max([len(e) - 1 for row in matrix for e in row] + [0])
    return max(rref([[sum(c * x ** k for k, c in enumerate(e)) for e in row]
                     for row in matrix])[0]
               for x in range(4 * deg + 1))


def _sympy_rank(matrix):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Matrix([[sum(c * x ** k for k, c in enumerate(e)) for e in row]
                         for row in matrix]).rank()


# coefficients up to 10^6 in u and v: the minors' roots reach far past the
# entries' own coefficients, so a packing point too close to them shows
_wide_z_matrices = _z_matrices(st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=150, deadline=None)
@given(_wide_z_matrices)
def test_bareiss_rank_matches_ratfunc_rank_on_wide_coefficients(matrix):
    assert _packed_rank(matrix) == _pointwise_rank(matrix)


@settings(max_examples=20, deadline=None)
@given(_wide_z_matrices)
def test_bareiss_rank_matches_sympy_on_wide_coefficients(matrix):
    assert _packed_rank(matrix) == _sympy_rank(matrix)


def _root_matrices(t):
    """(matrix over Z[x], rank, root) with entries of height H = 2^t whose
    determinant vanishes at x = root = 2^s, for every s with H < 2^s <= H^4:
    det [[x, a], [b, 1]] = x - ab, and the chain [[x, a, 0, 0], [a, 0, 1, 0],
    [0, 1, 0, c], [0, 0, c, e]] has determinant a^2*c^2 - e*x."""
    h = 2 ** t
    for s in range(t + 1, 4 * t + 1):
        if s <= 2 * t:
            yield [[[0, 1], [h]], [[2 ** (s - t)], [1]]], 2, 2 ** s
        else:
            j = (s - 2 * t + 1) // 2
            c, e = 2 ** j, 2 ** (2 * j - s + 2 * t)
            yield [[[0, 1], [h], [], []], [[h], [], [1], []],
                   [[], [1], [], [c]], [[], [], [c], [e]]], 4, 2 ** s


@pytest.mark.parametrize("t", [1, 2, 5, 40])
def test_bareiss_rank_at_a_minor_root_below_the_bound(t):
    # the roots lie past H + 1, at every power of two up to H^4 below the
    # packing point 2^b: packed at a smaller point, the Bareiss rank would
    # drop on one of them
    for matrix, rank, root in _root_matrices(t):
        shift = _packing_shift(2 ** t, 2, len(matrix))
        assert _int_rank([[_pack(e, shift) for e in row] for row in matrix]) == rank
        at_root = [[sum(c * root ** k for k, c in enumerate(e)) for e in row] for row in matrix]
        assert rref(at_root)[0] == rank - 1


def test_bareiss_rank_does_not_touch_its_input():
    # a pencil eliminates its cached packed matrix and then reads its minors
    matrix = [[0, 2, 4], [0, 1, 2], [3, 0, 1]]
    copy = [list(row) for row in matrix]
    assert _int_rank(matrix) == 2
    assert matrix == copy
    assert _int_rank([]) == 0
    assert _int_rank([[0, 0]]) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4 * MAX_DEGREE + 1), st.integers(1, 4300), st.integers(-8, 8), st.randoms())
@example(1, 4300, 1, random.Random(1))
@example(2, 4300, 1, random.Random(2))
@example(4 * MAX_DEGREE, 4300, 1, random.Random(3))
@example(4 * MAX_DEGREE + 1, 4300, 1, random.Random(4))
def test_pack_is_the_list_at_a_power_of_two(length, digits, slack, rng):
    # signed coefficients of up to `digits` digits, some of them 0; b is
    # sometimes too small to read the list back, and then only the value counts
    coeffs = [rng.choice((-1, 0, 1)) * rng.randrange(10 ** digits) for _ in range(length)]
    shift = max(1, max(abs(c) for c in coeffs).bit_length() + 1 + slack)
    packed = _pack(coeffs, shift)
    assert packed == sum(c << shift * i for i, c in enumerate(coeffs))
    if all(abs(c) < 1 << (shift - 1) for c in coeffs):
        assert _signed_digits(packed, shift) == _list_trim(coeffs)


# -- univariate gcd and root count over Z, against sympy -------------------------

_int_lists = st.lists(st.integers(-4, 4), max_size=5)


def _sympy_poly(sympy, coeffs):
    return sympy.Poly(list(reversed(coeffs)) or [0], sympy.Symbol("x"), domain="ZZ")


def _primitive_list(p):
    """Coefficients of a sympy Poly's primitive part with a positive lead,
    lowest degree first."""
    if p.is_zero:
        return []
    p = p.primitive()[1]
    return [int(c) * (1 if p.LC() > 0 else -1) for c in reversed(p.all_coeffs())]


def _is_primitive(coeffs):
    return not coeffs or (coeffs[-1] > 0 and math.gcd(*coeffs) == 1)


@settings(max_examples=150, deadline=None)
@given(_int_lists, _int_lists, _int_lists)
def test_c_gcd_is_primitive_and_matches_sympy(common, a, b):
    sympy = pytest.importorskip("sympy")
    # a common factor makes a nontrivial gcd likely
    a, b = _list_mul(common, a), _list_mul(common, b)
    g = _c_gcd(a, b)
    assert _is_primitive(g)
    expected = sympy.gcd(_sympy_poly(sympy, _list_trim(a)), _sympy_poly(sympy, _list_trim(b)))
    assert g == _primitive_list(expected)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                          st.integers(1, 3)), min_size=1, max_size=3))
@example([([5], 1)])  # a nonzero constant has no root
@example([([-1, 1], 3), ([0, 1], 2), ([2, 0, 1], 1)])  # (x - 1)^3 x^2 (x^2 + 2)
def test_squarefree_strips_multiplicity(factors):
    sympy = pytest.importorskip("sympy")
    a = [1]
    for f, multiplicity in factors:
        for _ in range(multiplicity):
            a = _list_mul(a, f)
    a = _list_trim(a)
    if not a:
        return
    assert _c_root_count(a) == sympy.sqf_part(_sympy_poly(sympy, a)).degree()
