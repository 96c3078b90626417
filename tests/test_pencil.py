import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1p3bundle import pencil
from p1p3bundle.errors import (
    InvalidParameterError,
    RankMismatchError,
    RankTooHighError,
)
from p1p3bundle.pencil import WHOLE_LINE, QuadricPencil, WholeLine
from p1p3bundle.poly import ParamPoly, rref

L = ParamPoly.var("l")
M = ParamPoly.var("m")


# Entries are coefficient tuples; the references below build ParamPoly
# forms and convert them with these two helpers.

def _coefficients(f, degree):
    """The coefficient tuple of a ParamPoly form of `degree` in l, m."""
    out = [0] * (degree + 1)
    for mono, c in f.terms.items():
        powers = dict(mono)
        assert set(powers) <= {"l", "m"} and sum(powers.values()) == degree, f
        out[powers.get("l", 0)] = c
    return tuple(out)


def _form(f):
    """The ParamPoly form of a coefficient tuple."""
    d = len(f) - 1
    return sum((c * L ** i * M ** (d - i) for i, c in enumerate(f)), ParamPoly.const(0))


@lru_cache(maxsize=None)
def _forms(entries):
    """The ParamPoly matrix of a pencil's entries, built once per pencil."""
    return [[_form(f) for f in row] for row in entries]


def _pencil(entries, degree):
    """The pencil of a 4x4 matrix of ParamPoly forms of `degree`."""
    return QuadricPencil([[_coefficients(f, degree) for f in row] for row in entries])


def _from_vectors(*vectors):
    """Sum of v.v^T over vectors of linear forms (a rank-<=len pencil)."""
    entries = [[sum((v[i] * v[j] for v in vectors), ParamPoly.const(0)) for j in range(4)]
               for i in range(4)]
    return _pencil(entries, 2)


def test_matrix_validation():
    bad = [[(0, 1)] * 4 for _ in range(4)]
    bad[0][1] = (1, 0)
    with pytest.raises(InvalidParameterError, match="symmetric"):
        QuadricPencil(bad)
    with pytest.raises(InvalidParameterError, match="one length"):
        QuadricPencil([[(0, 1, 0) if i == j == 0 else (0, 0) for j in range(4)]
                       for i in range(4)])
    with pytest.raises(InvalidParameterError, match="one length"):
        QuadricPencil([[()] * 4 for _ in range(4)])
    with pytest.raises(InvalidParameterError, match="4x4"):
        QuadricPencil([[(0,)] * 4 for _ in range(3)])


def test_pencil_coefficients_are_ints_or_fractions():
    # 0.1 would read as 3602879701896397/2^55, and a str would fail only at
    # the first rank query
    for bad in (0.1, "1", True):
        with pytest.raises(InvalidParameterError, match="an int or a Fraction"):
            QuadricPencil.rank2_normal_form(bad, 1, 3)
    p = QuadricPencil.rank2_normal_form(Fraction(1, 10), 1, 3)
    assert (p.generic_rank(), p.rank1_parameter_count()) == (2, 2)


def test_zero_pencil():
    p = QuadricPencil([[(0, 0, 0)] * 4 for _ in range(4)])
    assert p.degree == 2
    assert all(not any(e) for row in p.entries for e in row)
    assert p.generic_rank() == 0


def test_diagonal_full_rank():
    p = QuadricPencil([[(0, 1) if i == j else (0, 0) for j in range(4)] for i in range(4)])
    assert p.generic_rank() == 4
    with pytest.raises(RankTooHighError):
        p.rank1_parameter_count()
    with pytest.raises(RankMismatchError):
        p.singular_line_family()


def test_rank_at_validates_point():
    p = QuadricPencil.rank2_normal_form(1, 0, 1)
    with pytest.raises(InvalidParameterError):
        p.rank_at(0, 0)
    # the binary float 0.1 is not 1/10
    for l0, m0 in [(0.1, 1), (1, 0.5), (0.0, 0.0), ("1/2", 1), (True, 1)]:
        with pytest.raises(InvalidParameterError, match="expected an int or a Fraction"):
            p.rank_at(l0, m0)
    assert p.rank_at(Fraction(1, 10), 1) == p.rank_at(1, 10)


def test_normal_form_basics():
    p = QuadricPencil.rank2_normal_form(1, 0, 1)
    assert p.generic_rank() == 2
    assert p.rank_at(0, 1) == 2
    line, constant = p.singular_line_family()
    assert constant


def test_normal_form_rank1_count():
    p = QuadricPencil.rank2_normal_form(2, 1, 3)
    assert p.rank1_parameter_count() == 2


def test_linear_rank1_count_capped_at_two():
    rng = random.Random(0)
    for _ in range(10):
        a0, a1, a2 = (rng.randint(-5, 5) for _ in range(3))
        p = QuadricPencil.rank2_normal_form(a0, a1, a2)
        if p.generic_rank() != 2:
            continue
        count = p.rank1_parameter_count()
        if not isinstance(count, WholeLine):
            assert count <= 2, (a0, a1, a2)


def test_single_vector_is_whole_line():
    v = (L, M, ParamPoly.const(0), ParamPoly.const(0))
    p = _from_vectors(v)
    assert p.rank1_parameter_count() is WHOLE_LINE


def test_no_minor_is_computed_below_rank_two(monkeypatch):
    # every 2x2 minor vanishes exactly when the rank is at most 1
    minors = []
    real_digits = pencil._signed_digits
    monkeypatch.setattr(pencil, "_signed_digits",
                        lambda v, shift: minors.append(v) or real_digits(v, shift))
    v = (L, M, ParamPoly.const(0), ParamPoly.const(0))
    w = (M, L, ParamPoly.const(0), ParamPoly.const(0))
    zero = QuadricPencil([[(0, 0)] * 4 for _ in range(4)])
    for p, rank in [(zero, 0), (_from_vectors(v), 1)]:
        assert p.generic_rank() == rank
        assert p.rank1_parameter_count() is WHOLE_LINE
    assert minors == []
    assert _from_vectors(v, w).rank1_parameter_count() == 2
    assert len(minors) == 21


def test_two_vector_example():
    v = (L, M, ParamPoly.const(0), ParamPoly.const(0))
    w = (M, L, ParamPoly.const(0), ParamPoly.const(0))
    p = _from_vectors(v, w)
    assert p.generic_rank() == 2
    assert p.rank1_parameter_count() == 2
    assert p.rank_at(1, 1) == 1
    assert p.rank_at(1, -1) == 1
    assert p.rank_at(1, 2) == 2


def test_split_vector_pair_has_moving_line():
    v = (L, M, ParamPoly.const(0), ParamPoly.const(0))
    w = (ParamPoly.const(0), ParamPoly.const(0), L, M)
    p = _from_vectors(v, w)
    _, constant = p.singular_line_family()
    assert not constant


def test_degree4_witness():
    p = QuadricPencil.degree4_witness()
    assert p.degree == 4
    assert p.generic_rank() == 2
    assert p.rank1_parameter_count() == 4
    _, constant = p.singular_line_family()
    assert not constant
    # rank 1 at all four parameter roots of l*m*(l^2 - m^2)
    for l0, m0 in [(1, 0), (0, 1), (1, 1), (1, -1)]:
        assert p.rank_at(l0, m0) == 1
    assert p.rank_at(1, 2) == 2


def test_rank1_count_ignores_multiplicity():
    # s0*u*u^T + s1*w*w^T has rank <= 1 exactly at the roots of s0*s1; with
    # s0 = l^3*(l - m)^2*m and s1 = (l + m)^2*(l^2 + m^2)*m^2 the gcd of the
    # minors has roots 0, 1, -1, +-i and infinity, each but +-i repeated
    s0 = L ** 3 * (L - M) ** 2 * M
    s1 = (L + M) ** 2 * (L * L + M * M) * M * M
    u, w = (1, 2, 0, 3), (0, 1, 5, -1)
    p = _pencil([[s0 * u[i] * u[j] + s1 * w[i] * w[j] for j in range(4)] for i in range(4)], 6)
    assert p.generic_rank() == 2
    assert p.rank1_parameter_count() == 6


def test_rank_at_never_exceeds_generic_rank():
    rng = random.Random(1)
    p = QuadricPencil.degree4_witness()
    g = p.generic_rank()
    for _ in range(12):
        l0, m0 = rng.randint(-9, 9), rng.randint(-9, 9)
        if l0 == 0 and m0 == 0:
            continue
        assert p.rank_at(l0, m0) <= g


def _l_poly(coeffs):
    return sum((c * L ** i for i, c in enumerate(coeffs)), ParamPoly.const(0))


def test_singular_line_annihilates_matrix():
    rng = random.Random(3)
    pencils = [QuadricPencil.degree4_witness(), QuadricPencil.rank2_normal_form(2, 1, 3)]
    pencils += [p for p in (_random_pencil(rng) for _ in range(60)) if p.generic_rank() == 2]
    seen = set()
    for p in pencils:
        line, constant = p.singular_line_family()
        seen.add(constant)
        q = dict(zip(pencil.PAIRS, line))
        # the antisymmetric matrix of the line: its rows lie on the line
        rows = [[q[i, j] if i < j else tuple(-c for c in q[j, i]) if i > j else ()
                 for j in range(4)] for i in range(4)]
        # rank 2 over Q(l): its 3x3 minors have degree <= 6d and vanish at
        # 6d + 1 points, and some point has rank 2
        assert max(rref([[sum(c * x ** k for k, c in enumerate(e)) for e in row] for row in rows])[0]
                   for x in range(6 * p.degree + 1)) == 2
        a = [[e.subs({"m": 1}) for e in row] for row in _forms(p.entries)]
        for i in range(4):
            for k in range(4):
                assert sum((a[i][j] * _l_poly(rows[j][k]) for j in range(4)),
                           ParamPoly.const(0)).is_zero()
        plucker = (_l_poly(q[0, 1]) * _l_poly(q[2, 3]) - _l_poly(q[0, 2]) * _l_poly(q[1, 3])
                   + _l_poly(q[0, 3]) * _l_poly(q[1, 2]))
        assert plucker.is_zero()
    assert seen == {True, False}


def test_constant_squared_diagonal():
    entries = [[(0, 0, 0)] * 4 for _ in range(4)]
    entries[0][0] = (0, 0, 1)
    entries[1][1] = (0, 0, 1)
    p = QuadricPencil(entries)
    line, constant = p.singular_line_family()
    assert constant


def test_rank_is_computed_once_per_pencil(monkeypatch):
    # one elimination of the packed matrix, and one product and read-back for
    # each of the 21 distinct 2x2 minors of the symmetric matrix
    eliminations = []
    minors = []

    def counting_rank(rows):
        eliminations.append(rows)
        return real_rank(rows)

    def counting_digits(v, shift):
        minors.append(v)
        return real_digits(v, shift)

    real_rank, real_digits = pencil._int_rank, pencil._signed_digits
    monkeypatch.setattr(pencil, "_int_rank", counting_rank)
    monkeypatch.setattr(pencil, "_signed_digits", counting_digits)
    p = QuadricPencil.degree4_witness()
    assert p.generic_rank() == 2
    assert p.rank1_parameter_count() == 4
    p.singular_line_family()
    assert p.rank1_parameter_count() == 4
    p.singular_line_family()
    assert p.generic_rank() == 2
    assert len(eliminations) == 1
    assert len(minors) == 21


@pytest.mark.parametrize("t", [1, 3, 40])
def test_rank_at_a_minor_root_below_the_bound(t):
    # the symmetric chain [[l, h, 0, 0], [h, 0, 1, 0], [0, 1, 0, c], [0, 0, c, e]]
    # (constants times m), h = 2^t = H, has determinant h^2*c^2 - e*l on the
    # chart m = 1: generic rank 4, and rank 3 at l = 2^s for each s in
    # [2t, 4t], up to H^4, a few bits below the packing point 2^b
    h, l, one, zero = 2 ** t, (0, 1), (1, 0), (0, 0)
    for s in range(2 * t, 4 * t + 1):
        j = (s - 2 * t + 1) // 2
        c, e = (2 ** j, 0), (2 ** (2 * j - s + 2 * t), 0)
        p = QuadricPencil([[l, (h, 0), zero, zero], [(h, 0), zero, one, zero],
                           [zero, one, zero, c], [zero, zero, c, e]])
        assert p.generic_rank() == 4
        assert p.rank_at(2 ** s, 1) == 3
        assert p.rank_at(2 ** s + 1, 1) == 4


def _list_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _direct_minors(p):
    """The 36 2x2 minors of the integer matrix, by polynomial products."""
    e = p._z_matrix
    out = []
    for i, j in pencil.PAIRS:
        for k, n in pencil.PAIRS:
            f = [x - y for x, y in zip(_list_mul(e[i][k], e[j][n]), _list_mul(e[i][n], e[j][k]))]
            while f and not f[-1]:
                f.pop()
            out.append(f)
    return out


def test_minors_read_back_exactly():
    # random symmetric pencils with coefficients up to 10^6, and the extreme
    # digit: rows (0, 1) and columns (2, 3) of f, f / -f, f with
    # f = H*(1 + l + ... + l^d) give the coefficient 2(d+1)H^2
    rng = random.Random(6)
    pencils = []
    for _ in range(60):
        d = rng.randint(0, 5)
        bound = rng.choice((1, 10 ** 6, 10 ** 30))
        upper = {(i, j): tuple(rng.randint(-bound, bound) for _ in range(d + 1))
                 for i in range(4) for j in range(i, 4)}
        pencils.append(QuadricPencil([[upper[min(i, j), max(i, j)] for j in range(4)]
                                      for i in range(4)]))
    for d, h in [(0, 1), (1, 7), (3, 10 ** 6), (6, 2 ** 64 - 1)]:
        f, zero = (h,) * (d + 1), (0,) * (d + 1)
        minus = tuple(-c for c in f)
        pencils.append(QuadricPencil([[zero, zero, f, f], [zero, zero, minus, f],
                                      [f, minus, zero, zero], [f, f, zero, zero]]))
        assert [2 * (d + 1) * h * h] in [m[d:d + 1] for m in _direct_minors(pencils[-1])]
    for p in pencils:
        got = [f for row in p._minors for f in row]
        assert got == _direct_minors(p)


# Independent references: the generic rank pointwise, and the rank-1 count
# from ParamPoly minors with sympy's gcd and squarefree part.

def _evaluated(p, x, y=1):
    return [[e.value({"l": x, "m": y}) for e in row]
            for row in _forms(p.entries)]


def _reference_generic_rank(p):
    """The largest rref rank at the points (x, 1), x = 0..4d: a nonzero
    r x r minor has degree <= 4d on the chart m = 1, so it is nonzero at one
    of them."""
    return max(rref(_evaluated(p, x))[0] for x in range(4 * p.degree + 1))


def _reference_rank1_count(p, sympy):
    e = _forms(p.entries)
    minors = [e[i][k] * e[j][n] - e[i][n] * e[j][k]
              for (i, j) in combinations(range(4), 2) for (k, n) in combinations(range(4), 2)]
    minors = [f.subs({"m": 1}) for f in minors if not f.is_zero()]
    if not minors:
        return WHOLE_LINE
    inf_mult = min(2 * p.degree - max(dict(mono).get("l", 0) for mono in f.terms) for f in minors)
    x = sympy.Symbol("l")
    polys = [sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x ** dict(mono).get("l", 0)
                            for mono, c in f.terms.items()), x) for f in minors]
    g = reduce(sympy.gcd, polys)
    return sympy.sqf_part(g).degree() + (inf_mult >= 1)


def _random_form(rng, degree):
    return sum((Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * L ** i * M ** (degree - i)
                for i in range(degree + 1)), ParamPoly.const(0))


def _random_pencil(rng):
    """sum_k s_k v_k v_k^T with 1-4 terms, mostly 2; each v_k is constant
    or linear."""
    degree = rng.randint(1, 4)
    entries = [[ParamPoly.const(0)] * 4 for _ in range(4)]
    for _ in range(rng.choice((1, 2, 2, 2, 3, 4))):
        if degree >= 2 and rng.random() < 0.5:
            v = [rng.randint(-2, 2) * L + rng.randint(-2, 2) * M for _ in range(4)]
            s = _random_form(rng, degree - 2)
        else:
            v = [ParamPoly.const(rng.randint(-2, 2)) for _ in range(4)]
            s = _random_form(rng, degree)
        for i in range(4):
            for j in range(4):
                entries[i][j] = entries[i][j] + s * v[i] * v[j]
    return _pencil(entries, degree)


@st.composite
def _wide_pencils(draw):
    """sum_k s_k v_k v_k^T over 0-4 terms with coefficients up to 10^6, each
    v_k of constants or linear forms, so every generic rank 0-4 occurs, and
    the entries' coefficients reach about 10^18."""
    coefficient = st.integers(-10 ** 6, 10 ** 6)
    degree = draw(st.integers(0, 3))
    upper = {(i, j): [0] * (degree + 1) for i in range(4) for j in range(i, 4)}
    for _ in range(draw(st.integers(0, 4))):
        e = draw(st.integers(0, degree // 2))
        v = draw(st.lists(st.lists(coefficient, min_size=e + 1, max_size=e + 1),
                          min_size=4, max_size=4))
        s = draw(st.lists(coefficient, min_size=degree - 2 * e + 1, max_size=degree - 2 * e + 1))
        for i, j in upper:
            upper[i, j] = [x + y for x, y in zip(upper[i, j], _list_mul(s, _list_mul(v[i], v[j])))]
    return QuadricPencil([[tuple(upper[min(i, j), max(i, j)]) for j in range(4)] for i in range(4)])


@settings(max_examples=150, deadline=None)
@given(_wide_pencils())
def test_generic_rank_matches_the_reference_on_wide_coefficients(p):
    assert p.generic_rank() == _reference_generic_rank(p)


def test_rank_and_rank1_count_match_the_ratfunc_reference():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4)
    pencils = [QuadricPencil.degree4_witness(), QuadricPencil.rank2_normal_form(2, 1, 3),
               QuadricPencil([[(0,) * 4] * 4 for _ in range(4)])]
    pencils += [_random_pencil(rng) for _ in range(40)]
    points = [(1, 0), (0, 1), (Fraction(1, 2), 5), (2, -3), (Fraction(-2, 3), Fraction(5, 7))]
    seen = set()
    for p in pencils:
        rank = p.generic_rank()
        assert rank == _reference_generic_rank(p)
        seen.add(rank)
        for point in points + [(rng.randint(-9, 9), rng.randint(1, 9))]:
            assert p.rank_at(*point) == rref(_evaluated(p, *point))[0]
        if rank <= 2:
            assert p.rank1_parameter_count() == _reference_rank1_count(p, sympy)
    assert seen == {0, 1, 2, 3, 4}


def test_constant_flag_matches_pointwise_kernels():
    # At a point of rank 2 the kernel is the specialisation of the singular
    # line, whose primitive Plücker coordinates have degree <= 2d; a moving
    # line equals a given line at <= 2d parameters, so equal kernels at
    # 2d + 2 points of rank 2 mean a constant line.  Equal kernels are equal row
    # spaces, i.e. equal reduced rows.
    rng = random.Random(5)
    outcomes = []
    while len(outcomes) < 200:
        p = _random_pencil(rng)
        if p.generic_rank() != 2 or _reference_generic_rank(p) != 2:
            continue
        kernels = []  # rank < 2 only at the <= 2d roots of the minors' gcd
        x = 0
        while len(kernels) < 2 * p.degree + 2:
            rank, _, reduced = rref(_evaluated(p, x))
            if rank == 2:
                kernels.append(reduced[:2])
            x += 1
        constant = all(k == kernels[0] for k in kernels)
        assert p.singular_line_family()[1] == constant
        outcomes.append(constant)
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20


def test_rank1_count_of_a_dense_pencil_of_degree_40():
    # s0*u*u^T + s1*w*w^T with dense random s0, s1: the minors' gcd is s0*s1,
    # of degree 80, where a Euclid over Fractions took tens of seconds
    sympy = pytest.importorskip("sympy")
    rng = random.Random(40)
    s0, s1 = [sum((rng.randint(-9, 9) * L ** i * M ** (40 - i) for i in range(41)),
                  ParamPoly.const(0)) for _ in range(2)]
    u, w = (1, 2, 0, 3), (0, 1, 5, -1)
    p = _pencil([[s0 * u[i] * u[j] + s1 * w[i] * w[j] for j in range(4)] for i in range(4)], 40)
    assert p.rank1_parameter_count() == _reference_rank1_count(p, sympy)
    assert p.singular_line_family()[1] is True
