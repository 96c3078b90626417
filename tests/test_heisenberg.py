import pytest

from p1p3bundle import heisenberg as hb
from p1p3bundle.errors import CapExceededError, InvalidParameterError


def test_closure_order_eight():
    g = hb.group_closure((hb.SIGMA, hb.TAU))
    assert g.order == 8


def test_trivial_closures():
    assert hb.group_closure((hb.IDENTITY_PAIR,)).order == 1
    assert hb.group_closure((hb.TAU,)).order == 2


def test_closure_is_closed_under_products_and_inverses():
    g = hb.group_closure((hb.SIGMA, hb.TAU))
    for x in g.elements:
        assert g.inverse(x) in g.elements
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
    assert ab.invariants == (2, 2)


def test_commutator_of_trivial_and_cyclic_groups():
    trivial = hb.group_closure((hb.IDENTITY_PAIR,))
    assert hb.commutator_structure(trivial) == (1, hb.FinAbGroup(()))
    c2 = hb.group_closure((hb.TAU,))
    derived, ab = hb.commutator_structure(c2)
    assert derived == 1
    assert ab.invariants == (2,)


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


def test_finab_normalization():
    assert hb.FinAbGroup((4, 2)).invariants == (2, 4)
    assert hb.FinAbGroup((2, 3)).invariants == (6,)
    assert hb.FinAbGroup((1, 1)).invariants == ()
    assert hb.FinAbGroup((10, 10)).order == 100
    with pytest.raises(InvalidParameterError):
        hb.FinAbGroup((0,))


def test_tensor_square():
    assert hb.tensor_square(0, 8, 6) == 20
    assert hb.tensor_square(0, 0, 0) == 0
    assert hb.tensor_square(8, 8, 6) == 28


def test_type_from_square():
    assert hb.type_from_square(20).invariants == (10, 10)
    assert hb.type_from_square(8).invariants == (4, 4)
    assert hb.type_from_square(2).invariants == ()
    with pytest.raises(InvalidParameterError):
        hb.type_from_square(7)
    with pytest.raises(InvalidParameterError):
        hb.type_from_square(-2)


def test_has_element_of_order():
    assert not hb.has_element_of_order(hb.FinAbGroup((10, 10)), 4)
    assert hb.has_element_of_order(hb.FinAbGroup((4, 4)), 4)
    assert hb.has_element_of_order(hb.FinAbGroup((2, 6)), 3)


def test_order_two_elements_of_z4_squared():
    # the elements of order <= 2 in (Z/4)^2 form a (Z/2)^2
    elems = [(a, b) for a in range(4) for b in range(4) if (2 * a) % 4 == 0 and (2 * b) % 4 == 0]
    assert len(elems) == 4
