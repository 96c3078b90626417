from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1p3bundle.errors import InvalidParameterError, NonInvertibleError, SolverError
from p1p3bundle.poly import (
    ParamPoly,
    RatFunc,
    _z_exact_div,
    bareiss_rank,
    from_coeffs,
    gcd_univariate,
    matrix_rank_kernel,
    rref,
    solve_zero_identity,
    squarefree_univariate,
    univariate_coeffs,
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
    assert q.evaluate({"x": 3}) == 2


def test_subs_and_evaluate():
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    p = a * a * b + 2 * a - 5
    assert p.evaluate({"a": 3, "b": 4}) == 36 + 6 - 5
    partial = p.subs({"a": 2})
    assert partial == 4 * b - 1
    # polynomial-valued substitution
    nested = p.subs({"a": b + 1})
    assert nested.evaluate({"b": 1}) == p.evaluate({"a": 2, "b": 1})


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


def test_univariate_roundtrip():
    t = ParamPoly.var("t")
    p = 2 * t ** 3 - t + 5
    coeffs = univariate_coeffs(p, "t")
    assert from_coeffs(coeffs, "t") == p


def test_gcd_univariate_is_monic():
    t = ParamPoly.var("t")
    p = (t - 1) * (t - 2)
    q = (t - 1) * (t + 5)
    g = gcd_univariate(p, q, "t")
    assert g == t - 1


def test_squarefree_strips_multiplicity():
    t = ParamPoly.var("t")
    p = (t - 1) ** 3 * (t + 2)
    r = squarefree_univariate(p, "t")
    assert r == (t - 1) * (t + 2)


def test_ratfunc_field_arithmetic():
    x = RatFunc.x("t")
    one = RatFunc.const(1, "t")
    f = (x * x - one) / (x - one)
    assert f == x + one
    g = one / x
    assert g * x == one
    with pytest.raises(NonInvertibleError):
        one / (x - x)


def test_ratfunc_is_constant():
    x = RatFunc.x("t")
    assert not x.is_constant()
    assert (x / x).is_constant()
    assert RatFunc.const(Fraction(3, 4), "t").constant() == Fraction(3, 4)


def test_rref_and_kernel_over_fractions():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    rank, pivots, _ = rref([list(r) for r in rows])
    assert rank == 2
    rank2, kernel = matrix_rank_kernel(rows)
    assert rank2 == 2
    assert len(kernel) == 1
    v = kernel[0]
    for row in rows:
        assert sum(row[j] * v[j] for j in range(3)) == 0


def test_kernel_over_function_field():
    t = RatFunc.x("t")
    zero = RatFunc.const(0, "t")
    rows = [[t, t * t], [t * t, t * t * t]]
    rank, kernel = matrix_rank_kernel(rows)
    assert rank == 1
    v = kernel[0]
    for row in rows:
        s = zero
        for j in range(2):
            s = s + row[j] * v[j]
        assert not s


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


@st.composite
def _z_matrices(draw):
    """1-4 x 1-4 matrices over Z[x] built as sums of 0-4 rank-one products
    u.v^T, so deficient ranks, zero rows and zero columns all occur."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    poly = st.lists(st.integers(-3, 3), max_size=3)
    matrix = [[[] for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 4))):
        u = draw(st.lists(poly, min_size=nrows, max_size=nrows))
        v = draw(st.lists(poly, min_size=ncols, max_size=ncols))
        for i in range(nrows):
            for j in range(ncols):
                matrix[i][j] = _list_add(matrix[i][j], _list_mul(u[i], v[j]))
    return [[_list_trim(e) for e in row] for row in matrix]


@settings(max_examples=150, deadline=None)
@given(_z_matrices())
def test_bareiss_rank_matches_ratfunc_rank(matrix):
    expected, _ = matrix_rank_kernel([[RatFunc("x", e) for e in row] for row in matrix])
    assert bareiss_rank(matrix) == expected


@settings(max_examples=20, deadline=None)
@given(_z_matrices())
def test_bareiss_rank_matches_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rows = [[sum(c * x ** k for k, c in enumerate(e)) for e in row] for row in matrix]
    assert bareiss_rank(matrix) == sympy.Matrix(rows).rank()


def test_bareiss_rank_does_not_touch_its_input():
    matrix = [[[0, 1], [1]], [[0, 0, 1], [0, 1]]]
    copy = [[list(e) for e in row] for row in matrix]
    assert bareiss_rank(matrix) == 1
    assert matrix == copy
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[[], []]]) == 0


def test_exact_division_raises_on_a_remainder():
    assert _z_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
    assert _z_exact_div([], [3]) == []
    with pytest.raises(InvalidParameterError, match="inexact division"):
        _z_exact_div([1, 0, 1], [1, 1])  # (x^2 + 1) / (x + 1)
    with pytest.raises(InvalidParameterError, match="inexact division"):
        _z_exact_div([3], [2])  # never truncated to 1
    with pytest.raises(InvalidParameterError, match="inexact division"):
        _z_exact_div([1], [0, 1])
    with pytest.raises(ZeroDivisionError):
        _z_exact_div([1], [])
