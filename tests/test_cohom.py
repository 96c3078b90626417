from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1p3bundle import cohom
from p1p3bundle.errors import InconsistentError, InvalidParameterError


def test_cohom_pn_examples():
    assert tuple(cohom.cohom_pn(3, 2)) == (10, 0, 0, 0)
    assert tuple(cohom.cohom_pn(3, -4)) == (0, 0, 0, 1)
    assert tuple(cohom.cohom_pn(1, -2)) == (0, 1)
    assert tuple(cohom.cohom_pn(1, -1)) == (0, 0)
    with pytest.raises(InvalidParameterError):
        cohom.cohom_pn(0, 1)


def test_kunneth_examples():
    assert cohom.cohom_p1xp3(-2, 0)[1] == 1
    assert cohom.cohom_p1xp3(-3, 1)[1] == 8
    assert tuple(cohom.cohom_p1xp3(0, 0)) == (1, 0, 0, 0, 0)


def test_cohom_p1xp3_is_the_kunneth_product_of_bott_tables():
    wide = [10 ** 30, -10 ** 30, 10 ** 30 + 7, -10 ** 30 - 7]
    points = [(a, b) for a in range(-40, 41) for b in range(-40, 41)]
    points += [(a, b) for a in wide for b in wide + [0, -1, -4, 5]]
    points += [(a, b) for a in [0, -1, -2, 5] for b in wide]
    for a, b in points:
        table = cohom.cohom_p1xp3(a, b)
        assert type(table) is cohom.CohomTable
        assert table == cohom.kunneth(cohom.cohom_pn(1, a), cohom.cohom_pn(3, b)), (a, b)


def test_cohom_p1xp3_builds_no_intermediate_table(monkeypatch):
    cohom.cohom_p1xp3(-3, 1)
    calls = []
    for name in ("cohom_pn", "kunneth"):
        f = getattr(cohom, name)
        monkeypatch.setattr(cohom, name, lambda *args, f=f, name=name: calls.append(name) or f(*args))
    new = cohom.CohomTable.__new__
    monkeypatch.setattr(cohom.CohomTable, "__new__",
                        lambda cls, dims: calls.append("CohomTable") or new(cls, dims))
    for k in range(1000):
        cohom.cohom_p1xp3(k % 41 - 20, k % 37 - 18)
    assert calls == []


@pytest.mark.parametrize("name, args", [
    ("cohom_p1xp3", (-1.5, -1)),
    ("cohom_p1xp3", (Fraction(-3, 2), -1)),
    ("cohom_p1xp3", (True, 0)),
    ("cohom_p1xp3", (1.5, 0)),
    ("cohom_p1xp3", (0, 2.0)),
    ("cohom_pn", (3, Fraction(2))),
    ("cohom_pn", (1.0, 2)),
    ("cohom_sigma0", (-4, 1.0)),
    ("cohom_sigma0", (False, 1)),
    ("serre_dual_check", (0.5, 0)),
])
def test_non_int_twists_are_rejected(name, args):
    with pytest.raises(InvalidParameterError, match="expected ints"):
        getattr(cohom, name)(*args)


def test_kunneth_chi_multiplicative():
    for a in range(-4, 4):
        for b in range(-4, 4):
            ta, tb = cohom.cohom_pn(1, a), cohom.cohom_pn(3, b)
            assert cohom.kunneth(ta, tb).chi == ta.chi * tb.chi


def test_serre_duality_grid():
    for a in range(-8, 9):
        for b in range(-8, 9):
            assert cohom.serre_dual_check(a, b), (a, b)


def test_intro_formula_on_grid():
    from math import comb
    for a in range(-6, -1):
        for b in range(0, 6):
            t = cohom.cohom_p1xp3(a, b)
            assert t[1] == -(a + 1) * comb(b + 3, 3)
            assert t[1] > 0


def test_cohom_sigma0():
    assert cohom.cohom_sigma0(-4, 1)[1] == 6
    assert cohom.cohom_sigma0(-1, 5)[1] == 0
    assert tuple(cohom.cohom_sigma0(0, 0)) == (1, 0, 0)


def test_cohom_table_validation():
    with pytest.raises(InvalidParameterError, match="must be nonnegative"):
        cohom.CohomTable((1, -1))
    with pytest.raises(InvalidParameterError, match="must be nonnegative"):
        cohom.CohomTable([0, 3, -2])
    t = cohom.CohomTable((1, 2, 1))
    assert t.chi == 0
    assert tuple(t.reversed()) == (1, 2, 1)
    assert type(t.reversed()) is cohom.CohomTable and cohom.CohomTable([4, 0]) == (4, 0)


def test_records_are_read_only():
    t = cohom.CohomTable((1, 0))
    hint = cohom.MapRankHint("B->C", 0, 1)
    records = [(t, "dims"), (hint, "rank"), (cohom.Underdetermined(()), "tables")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_les_ideal_sheaf_of_abelian_surface():
    solved = cohom.les_solve(
        a=None,
        b=cohom.CohomTable((1, 0, 0, 0, 0)),
        c=cohom.ABELIAN_SURFACE_TABLE,
        hints=(cohom.MapRankHint("B->C", 0, 1),),
    )
    assert solved == (0, 0, 2, 1, 0)


def test_les_without_hint_is_underdetermined():
    result = cohom.les_solve(
        a=None,
        b=cohom.CohomTable((1, 0, 0, 0, 0)),
        c=cohom.ABELIAN_SURFACE_TABLE,
    )
    assert isinstance(result, cohom.Underdetermined)
    assert (0, 0, 2, 1, 0) in result.tables


def test_les_partial_table():
    solved = cohom.les_solve(
        a=cohom.CohomTable((0, 0, 0, 0)),
        b=None,
        c=(1, None, None, None),
    )
    assert solved[0] == 1


def test_les_trivial_zero_sequence():
    zero = cohom.CohomTable((0, 0, 0))
    assert cohom.les_solve(a=zero, b=None, c=zero) == (0, 0, 0)


def test_les_inconsistent():
    # h^0(A) = 2 cannot inject into h^0(B) = 0 with nowhere to escape
    with pytest.raises(InconsistentError):
        cohom.les_solve(a=cohom.CohomTable((2, 0)), b=cohom.CohomTable((0, 0)), c=None)


def test_les_solution_properties():
    # chi additivity and subadditivity on the solved ideal-sheaf table
    a = cohom.les_solve(
        a=None,
        b=cohom.CohomTable((1, 0, 0, 0, 0)),
        c=cohom.ABELIAN_SURFACE_TABLE,
        hints=(cohom.MapRankHint("B->C", 0, 1),),
    )
    chi_a = sum((-1) ** i * x for i, x in enumerate(a))
    assert chi_a + cohom.ABELIAN_SURFACE_TABLE.chi == 1
    for i in range(5):
        assert cohom.CohomTable((1, 0, 0, 0, 0))[i] <= a[i] + cohom.ABELIAN_SURFACE_TABLE[i]


def test_les_requires_exactly_one_unknown():
    t = cohom.CohomTable((1, 0))
    with pytest.raises(InvalidParameterError, match="exactly one slot must be unknown"):
        cohom.les_solve(a=t, b=t, c=t)
    with pytest.raises(InvalidParameterError, match="exactly one slot must be unknown"):
        cohom.les_solve(a=None, b=None, c=t)


def test_les_rejects_tables_of_different_lengths():
    with pytest.raises(InvalidParameterError, match="the known tables must have the same length"):
        cohom.les_solve(a=(1, 0), b=None, c=(1, 0, 0))
    with pytest.raises(InvalidParameterError, match="the known tables must have the same length"):
        cohom.les_solve(a=None, b=cohom.CohomTable((1, 0, 0, 0)), c=(1, None, None))


_KINDS = ("A->B", "B->C", "connecting")


@st.composite
def _les_problems(draw):
    """Slots (a, b, c) of one length 1-5, one of them None, entries 0-4 (or
    None in half of the problems), and up to two hints."""
    n = draw(st.integers(1, 5))
    entry = st.integers(0, 4) | st.none() if draw(st.booleans()) else st.integers(0, 4)
    slots = [tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(3)]
    slots[draw(st.integers(0, 2))] = None
    hints = tuple(cohom.MapRankHint(draw(st.sampled_from(_KINDS)), draw(st.integers(0, n - 1)),
                                    draw(st.integers(0, 3)))
                  for _ in range(draw(st.integers(0, 2))))
    return slots, hints


def _solve(slots, hints):
    try:
        result = cohom.les_solve(*slots, hints=hints)
    except InconsistentError:
        return ()
    return result.tables if isinstance(result, cohom.Underdetermined) else (result,)


@settings(max_examples=300, deadline=None)
@given(_les_problems(), st.integers(1, 2))
def test_les_solutions_are_exact(problem, shift):
    slots, hints = problem
    k = slots.index(None)
    for table in _solve(slots, hints):
        if None in table:
            continue
        full = list(slots)
        full[k] = table
        a, b, c = full
        # chi is additive on a short exact sequence
        assert sum((-1) ** i * (b[i] - a[i] - c[i]) for i in range(len(table))) == 0
        # the solved slot, fed back as known, admits the original table of
        # another slot
        j = (k + shift) % 3
        full[j] = None
        assert slots[j] in _solve(full, hints)


@given(_les_problems(), st.text(max_size=5).filter(lambda s: s not in _KINDS))
def test_les_rejects_an_unknown_hint_kind_or_index(problem, kind):
    slots, hints = problem
    n = max(len(t) for t in slots if t is not None)
    for bad in (cohom.MapRankHint(kind, 0, 0), cohom.MapRankHint("connecting", n, 0)):
        with pytest.raises(InvalidParameterError):
            cohom.les_solve(*slots, hints=hints + (bad,))
