import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p1p3bundle import heisenberg as hb
from p1p3bundle.errors import CapExceededError, InvalidParameterError


def test_closure_order_eight():
    g = hb.group_closure((hb.SIGMA, hb.TAU))
    assert g.order == 8


def test_group_is_read_only():
    g = hb.group_closure((hb.TAU,))
    with pytest.raises(AttributeError):
        g.elements = frozenset()
    assert g.generators == (hb.TAU,) and hb.IDENTITY_PAIR in g.elements


def test_trivial_closures():
    assert hb.group_closure((hb.IDENTITY_PAIR,)).order == 1
    assert hb.group_closure((hb.TAU,)).order == 2


def test_closure_is_closed_under_products_and_inverses():
    g = hb.group_closure((hb.SIGMA, hb.TAU))
    for x in g.elements:
        assert any(hb.pair_mul(x, y) == hb.IDENTITY_PAIR for y in g.elements)
        for y in g.elements:
            assert hb.pair_mul(x, y) in g.elements


def test_coordinate_projections_are_homomorphisms():
    g = hb.group_closure((hb.SIGMA, hb.TAU))
    for x in g.elements:
        for y in g.elements:
            p = hb.pair_mul(x, y)
            assert p[0] == hb._mat_mul(x[0], y[0])
            assert p[1] == hb._mat_mul(x[1], y[1])


def test_dihedral_relations():
    g = hb.group_closure((hb.SIGMA, hb.TAU))
    report = hb.relation_check(g)
    assert report == {
        "sigma^2=1": True,
        "tau^2=1": True,
        "ord(sigma*tau)=4": True,
        "tau*(sigma*tau)*tau=(sigma*tau)^-1": True,
    }


def test_relation_check_on_trivial_generators():
    g = hb.group_closure((hb.IDENTITY_PAIR, hb.IDENTITY_PAIR))
    report = hb.relation_check(g)
    assert report["ord(sigma*tau)=4"] is False
    assert report["sigma^2=1"] is True


def test_relations_survive_generator_swap():
    g = hb.group_closure((hb.TAU, hb.SIGMA))
    report = hb.relation_check(g)
    assert report["sigma^2=1"] and report["tau^2=1"]


def test_element_order_spectrum():
    g = hb.group_closure((hb.SIGMA, hb.TAU))
    orders = {g.element_order(x) for x in g.elements}
    assert orders == {1, 2, 4}


def test_commutator_structure():
    g = hb.group_closure((hb.SIGMA, hb.TAU))
    derived, ab = hb.commutator_structure(g)
    assert derived == 2
    assert g.order % derived == 0
    assert ab == (2, 2)


def test_commutator_of_trivial_and_cyclic_groups():
    trivial = hb.group_closure((hb.IDENTITY_PAIR,))
    assert hb.commutator_structure(trivial) == (1, ())
    c2 = hb.group_closure((hb.TAU,))
    derived, ab = hb.commutator_structure(c2)
    assert derived == 1
    assert ab == (2,)


def test_closure_cap():
    shear = (((1, 1), (0, 1)), hb.IDENTITY_PAIR[1])
    with pytest.raises(CapExceededError):
        hb.group_closure((shear,), cap=64)


def test_closure_cap_is_exact():
    assert hb.group_closure((hb.SIGMA, hb.TAU), cap=8).order == 8
    with pytest.raises(CapExceededError):
        hb.group_closure((hb.SIGMA, hb.TAU), cap=7)


@pytest.mark.parametrize("cap", [50, 64])
def test_closure_stops_once_the_cap_is_passed(monkeypatch, cap):
    # every element found is the identity, the generator or some product:
    # the closure must raise right after the product that passed the cap
    products = []
    real = hb.pair_mul

    def counting(g, h):
        products.append(real(g, h))
        return products[-1]

    monkeypatch.setattr(hb, "pair_mul", counting)
    shear = (((1, 1), (0, 1)), hb.IDENTITY_PAIR[1])
    with pytest.raises(CapExceededError):
        hb.group_closure((shear,), cap=cap)
    assert len(set(products) | {hb.IDENTITY_PAIR, shear}) == cap + 1
    assert products[-1] not in products[:-1]


def test_type_from_square():
    assert hb.type_from_square(20) == (10, 10)
    assert hb.type_from_square(8) == (4, 4)
    assert hb.type_from_square(2) == ()
    with pytest.raises(InvalidParameterError):
        hb.type_from_square(7)
    with pytest.raises(InvalidParameterError):
        hb.type_from_square(-2)


def test_has_element_of_order():
    assert not hb.has_element_of_order((10, 10), 4)
    assert hb.has_element_of_order((4, 4), 4)
    assert hb.has_element_of_order((2, 6), 3)


def _signed_permutation(n):
    """n x n matrices with one entry +-1 in each row and column."""
    return st.tuples(
        st.permutations(range(n)), st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    ).map(lambda ps: tuple(
        tuple(ps[1][j] if ps[0][j] == i else 0 for j in range(n)) for i in range(n)
    ))


def _on_signed_basis(pair):
    """The pair as one permutation of the 12 vectors +-e_j of Q^2 and Q^4,
    a faithful action: point 2j (+ offset) is e_j, point 2j + 1 is -e_j."""
    image, offset = [], 0
    for m in pair:
        for j in range(len(m)):
            i = next(i for i in range(len(m)) if m[i][j])
            flip = m[i][j] < 0
            image += [offset + 2 * i + flip, offset + 2 * i + (not flip)]
        offset += 2 * len(m)
    return image


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_signed_permutation(2), _signed_permutation(4)), min_size=2, max_size=2))
def test_group_structure_matches_sympy(gens):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    sympy = pytest.importorskip("sympy")
    try:
        g = hb.group_closure(gens, cap=96)
    except CapExceededError:
        assume(False)
    perms = [combinatorics.Permutation(_on_signed_basis(x)) for x in gens]
    reference = combinatorics.PermutationGroup(perms)
    derived, ab = hb.commutator_structure(g)
    assert g.order == reference.order()
    assert [g.element_order(x) for x in gens] == [p.order() for p in perms]
    assert derived == reference.derived_subgroup().order()
    # ours are invariant factors d1 | d2 | ... with no 1s, sympy's are the
    # prime powers of the primary decomposition: the same group when each d
    # splits into exactly those prime powers
    assert all(d > 1 for d in ab) and all(b % a == 0 for a, b in zip(ab, ab[1:]))
    ours = sorted(p ** e for d in ab for p, e in sympy.factorint(d).items())
    assert ours == sorted(reference.abelian_invariants())


def test_prop22_group_products_are_few(monkeypatch):
    # the orbits multiply by generators and generator commutators only, so
    # the count grows like |G| times the number of generators, not |G|^2
    calls = []
    real = hb.pair_mul

    def counting(g, h):
        calls.append(None)
        return real(g, h)

    monkeypatch.setattr(hb, "pair_mul", counting)
    g = hb.group_closure((hb.SIGMA, hb.TAU))
    assert all(hb.relation_check(g).values())
    assert hb.commutator_structure(g) == (2, (2, 2))
    assert len(calls) < 250
