import random
from fractions import Fraction
from itertools import combinations

import pytest

from p1p3bundle import pencil
from p1p3bundle.errors import (
    InvalidParameterError,
    RankMismatchError,
    RankTooHighError,
)
from p1p3bundle.pencil import WHOLE_LINE, QuadricPencil, WholeLine
from p1p3bundle.poly import (
    ParamPoly,
    RatFunc,
    gcd_univariate,
    matrix_rank_kernel,
    squarefree_univariate,
    univariate_coeffs,
)

L = ParamPoly.var("l")
M = ParamPoly.var("m")


def test_matrix_validation():
    bad = [[L] * 4 for _ in range(4)]
    bad[0][1] = M
    with pytest.raises(InvalidParameterError):
        QuadricPencil(bad)
    inhomogeneous = [[L + L * M if i == j == 0 else ParamPoly.const(0) for j in range(4)]
                     for i in range(4)]
    with pytest.raises(InvalidParameterError):
        QuadricPencil(inhomogeneous)
    with pytest.raises(InvalidParameterError):
        QuadricPencil([[ParamPoly.var("z") if i == j else ParamPoly.const(0)
                        for j in range(4)] for i in range(4)])


def test_zero_pencil():
    p = QuadricPencil([[0] * 4 for _ in range(4)])
    assert p.is_zero()
    assert p.generic_rank() == 0


def test_diagonal_full_rank():
    p = QuadricPencil([[L if i == j else ParamPoly.const(0) for j in range(4)]
                       for i in range(4)])
    assert p.generic_rank() == 4
    with pytest.raises(RankTooHighError):
        p.rank1_parameter_count()
    with pytest.raises(RankMismatchError):
        p.singular_line_family()


def test_rank_at_validates_point():
    p = QuadricPencil.rank2_normal_form(1, 0, 1)
    with pytest.raises(InvalidParameterError):
        p.rank_at(0, 0)


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
    p = QuadricPencil.from_vectors(v)
    assert p.rank1_parameter_count() is WHOLE_LINE


def test_two_vector_example():
    v = (L, M, ParamPoly.const(0), ParamPoly.const(0))
    w = (M, L, ParamPoly.const(0), ParamPoly.const(0))
    p = QuadricPencil.from_vectors(v, w)
    assert p.generic_rank() == 2
    assert p.rank1_parameter_count() == 2
    assert p.rank_at(1, 1) == 1
    assert p.rank_at(1, -1) == 1
    assert p.rank_at(1, 2) == 2


def test_split_vector_pair_has_moving_line():
    v = (L, M, ParamPoly.const(0), ParamPoly.const(0))
    w = (ParamPoly.const(0), ParamPoly.const(0), L, M)
    p = QuadricPencil.from_vectors(v, w)
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


def test_rank_at_never_exceeds_generic_rank():
    rng = random.Random(1)
    p = QuadricPencil.degree4_witness()
    g = p.generic_rank()
    for _ in range(12):
        l0, m0 = rng.randint(-9, 9), rng.randint(-9, 9)
        if l0 == 0 and m0 == 0:
            continue
        assert p.rank_at(l0, m0) <= g


def test_singular_line_annihilates_matrix():
    p = QuadricPencil.degree4_witness()
    line, _ = p.singular_line_family()
    matrix = p._function_field_matrix()
    zero = RatFunc.const(0, "l")
    for v in line.basis:
        for row in matrix:
            s = zero
            for j in range(4):
                x = v[j]
                if isinstance(x, int):
                    x = RatFunc.const(x, "l")
                s = s + row[j] * x
            assert not s


def test_constant_squared_diagonal():
    entries = [[ParamPoly.const(0)] * 4 for _ in range(4)]
    entries[0][0] = L * L
    entries[1][1] = L * L
    p = QuadricPencil(entries)
    line, constant = p.singular_line_family()
    assert constant


def test_rank_is_computed_once_per_pencil(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(rows)
        return real(rows)

    real = pencil.bareiss_rank
    monkeypatch.setattr(pencil, "bareiss_rank", counting)
    p = QuadricPencil.degree4_witness()
    assert p.generic_rank() == 2
    assert p.rank1_parameter_count() == 4
    p.singular_line_family()
    assert p.generic_rank() == 2
    assert len(calls) == 1


# The RatFunc route this module used before fraction-free elimination, kept
# here as the reference: generic rank from the function-field matrix, and
# the rank-1 count from ParamPoly minors and gcd_univariate.

def _reference_generic_rank(p):
    rows = [[RatFunc.from_poly(e.subs({"m": 1}), "l") for e in row] for row in p.entries]
    rank, _ = matrix_rank_kernel(rows)
    return rank


def _reference_rank1_count(p):
    e = p.entries
    minors = [e[i][k] * e[j][n] - e[i][n] * e[j][k]
              for (i, j) in combinations(range(4), 2) for (k, n) in combinations(range(4), 2)]
    minors = [f.subs({"m": 1}) for f in minors if not f.is_zero()]
    if not minors:
        return WHOLE_LINE
    inf_mult = min(2 * p.degree - f.degree_in("l") for f in minors)
    g = minors[0]
    for f in minors[1:]:
        g = gcd_univariate(g, f, "l")
    count = len(univariate_coeffs(squarefree_univariate(g, "l"), "l")) - 1
    return count + (inf_mult >= 1)


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
    return QuadricPencil(entries, degree=degree)


def test_rank_and_rank1_count_match_the_ratfunc_reference():
    rng = random.Random(4)
    pencils = [QuadricPencil.degree4_witness(), QuadricPencil.rank2_normal_form(2, 1, 3),
               QuadricPencil([[0] * 4 for _ in range(4)], degree=3)]
    pencils += [_random_pencil(rng) for _ in range(40)]
    seen = set()
    for p in pencils:
        rank = p.generic_rank()
        assert rank == _reference_generic_rank(p)
        seen.add(rank)
        if rank <= 2:
            assert p.rank1_parameter_count() == _reference_rank1_count(p)
    assert seen == {0, 1, 2, 3, 4}
