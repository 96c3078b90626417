"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a single PASS/FAIL line for its criterion (visible with
pytest -s or in captured output on failure).
"""

import itertools
import json
from math import comb
from pathlib import Path

from p1p3bundle import chern, chow, claims, cohom, geometry, heisenberg, pencil, stability
from p1p3bundle.poly import ParamPoly


def _report(number, label, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, label))
    assert ok, "criterion %d: %s" % (number, label)


def test_criterion_01_chi_polynomial():
    poly = geometry.chi_twisted_bundle()
    ok = (
        poly == geometry.rr_polynomial()
        and poly.value({"a": 0, "b": 0}) == -6
        and poly.value({"a": -2, "b": -4}) == 2
    )
    _report(1, "Riemann-Roch chi(E(a,b)) closed form with spot values", ok)


def test_criterion_02_h1_formula():
    ok = True
    for a in range(-6, -1):
        for b in range(0, 6):
            h1 = cohom.cohom_p1xp3(a, b)[1]
            ok = ok and h1 == -(a + 1) * comb(b + 3, 3) and h1 > 0
    _report(2, "h^1(O(a,b)) = -(a+1) C(b+3,3) > 0 on the grid", ok)


def test_criterion_03_oracle_equivalence():
    ring = chow.p1xp3()
    checked = 0
    ok = True
    for a in range(-8, 9):
        for b in range(-8, 9):
            line = chern.line_bundle(
                ParamPoly.const(a) * ring.gen("h1") + ParamPoly.const(b) * ring.gen("h3")
            )
            ok = ok and chern.euler_characteristic(line).constant() == cohom.cohom_p1xp3(a, b).chi
            checked += 1
    _report(3, "HRR chi equals Bott/Kunneth chi (%d cases)" % checked, ok and checked == 289)


def test_criterion_04_stability_region():
    ok = stability.slope_dot((1, 2), stability.Polarization(1, 1)).constant() == 7
    for m in range(1, 41):
        for n in range(1, 41):
            got = stability.stability_decide(stability.Polarization(m, n))
            want = ("stable" if n < 18 * m
                    else "semistable_not_stable" if n == 18 * m else "unstable")
            ok = ok and got == want
    _report(4, "stability matches n vs 18m on [1,40]^2, threshold 7 at (1,1)", ok)


def test_criterion_05_heisenberg_structure():
    g = heisenberg.group_closure((heisenberg.SIGMA, heisenberg.TAU))
    relations = heisenberg.relation_check(g)
    derived, ab = heisenberg.commutator_structure(g)
    ok = (g.order == 8 and all(relations.values())
          and derived == 2 and ab == (2, 2))
    _report(5, "group order 8, dihedral relations, commutator 2, abelianization (2,2)", ok)


def test_criterion_06_polarization_arithmetic():
    ring = chow.p1xp3()
    h = ring.gen("h1") + ring.gen("h3")
    square = chow.degree(h * h * chern.abelian_surface_bundle().c2)
    ok = (
        square == ParamPoly.const(20)
        and heisenberg.type_from_square(20) == (10, 10)
        and not heisenberg.has_element_of_order((10, 10), 4)
        and heisenberg.has_element_of_order((4, 4), 4)
    )
    _report(6, "tensor square 20, type (10,10), order-4 membership", ok)


def test_criterion_07_double_structure_solver():
    ok = True
    for e, expected in ((0, (2, -2, 4)), (2, (2, 0, 4))):
        sol = geometry.double_structure_solve(e)
        residual = geometry.double_structure_identity(e).subs(
            {"x": sol.x, "y": sol.y, "d": sol.d}
        )
        ok = ok and (sol.x, sol.y, sol.d) == expected and residual.is_zero() and sol.d == 4
    _report(7, "unique (2,-2,4) and (2,0,4) with zero residual, d = 4", ok)


def test_criterion_08_embedding_classifier():
    expected = [(0, 1, 1), (2, 1, 2)]
    ok = all(
        geometry.classify_embeddings(cap) == expected for cap in (2, 10)
    )
    _report(8, "exactly (0,1,1) and (2,1,2), stable under e_max", ok)


def test_criterion_09_normal_bundle_obstruction():
    sol = geometry.double_structure_solve(2)
    ring = chow.sigma(2)
    restricted = int(chow.degree(
        -((sol.x * ring.gen("C0") + sol.y * ring.gen("f")) * ring.gen("C0"))
    ).constant())
    ok = (restricted == 4
          and not geometry.subbundle_embeds(4, (0, 2))
          and not geometry.subbundle_embeds(4, (1, 1))
          and geometry.prop54_obstruction())
    _report(9, "degree 4 rejected by both normal-bundle candidates", ok)


def test_criterion_10_jumping_divisor():
    ok = True
    for r in (1, 2, 3):
        deg = geometry.jumping_divisor_degree(r)
        ok = ok and deg.is_constant() and deg == ParamPoly.const(4)
    _report(10, "jumping divisor degree constant 4 for r in {1,2,3}", ok)


def test_criterion_11_les_solver_and_genus():
    ideal = cohom.les_solve(
        a=None,
        b=cohom.CohomTable((1, 0, 0, 0, 0)),
        c=cohom.ABELIAN_SURFACE_TABLE,
        hints=(cohom.MapRankHint("B->C", 0, 1),),
    )
    h0 = cohom.les_solve(
        a=cohom.CohomTable((0, 0, 0, 0)),
        b=None,
        c=(1, None, None, None),
    )[0]
    p3 = chow.p3()
    et = chern.restrict_bundle(chern.abelian_surface_bundle(), (p3.zero(), p3.gen("h")))
    twisted = chern.twist(et, ParamPoly.const(-2) * et.ring.gen("h"))
    c1 = twisted.c1.coeff("h").constant()
    c2 = twisted.c2.coeff("h^2").constant()
    two_pa_minus_2 = c2 * (c1 - 4)
    ok = (ideal == (0, 0, 2, 1, 0) and ideal[:3] == (0, 0, 2) and h0 == 1
          and c2 == 2 and two_pa_minus_2 == -8
          and (two_pa_minus_2 + 2) / 2 == -3)
    _report(11, "h(I_X) = (0,0,2,1,0), h^0(E_t(-2)) = 1, c2 = 2, p_a = -3", ok)


def test_criterion_12_pencil_module():
    linear = pencil.QuadricPencil.rank2_normal_form(2, 1, 3)
    witness = pencil.QuadricPencil.degree4_witness()
    _, linear_constant = linear.singular_line_family()
    _, witness_constant = witness.singular_line_family()
    ok = (
        linear.rank1_parameter_count() == 2
        and witness.rank1_parameter_count() == 4
        and not witness_constant
        and linear_constant
    )
    _report(12, "2 rank-1 parameters (linear), 4 with moving line (degree-4 witness)", ok)


def test_criterion_13_splitting_types():
    horizontal = geometry.splitting_from_sections(4, {2: 1, 3: 0})
    vertical = geometry.splitting_from_sections(2, {1: 1, 2: 0})
    jumping = geometry.splitting_from_sections(4, {4: 1, 5: 0})
    ok = horizontal == (2, 2) and vertical == (1, 1) and jumping == (4, 0)
    _report(13, "splitting types (2,2) / (1,1) / (4,0)", ok)


def test_criterion_14_property_suites():
    ok = True
    # ring axioms, exhaustive on the basis of the main ring
    ring = chow.p1xp3()
    basis = [ring.one() if n == "1" else ring.gen(n) for n in ring.basis]
    for x, y in itertools.product(basis, repeat=2):
        ok = ok and x * y == y * x
    for x, y, z in itertools.product(basis, repeat=3):
        ok = ok and (x * y) * z == x * (y * z) and x * (y + z) == x * y + x * z
    # Serre duality grid
    for a in range(-8, 9):
        for b in range(-8, 9):
            ok = ok and cohom.serre_dual_check(a, b)
    # twist roundtrip
    line = 3 * ring.gen("h1") - ring.gen("h3")
    b2 = chern.abelian_surface_bundle()
    ok = ok and chern.twist(chern.twist(b2, line), -line) == b2
    # group closure axioms
    g = heisenberg.group_closure((heisenberg.SIGMA, heisenberg.TAU))
    for x in g.elements:
        ok = ok and any(heisenberg.pair_mul(x, y) == heisenberg.IDENTITY_PAIR for y in g.elements)
        for y in g.elements:
            ok = ok and heisenberg.pair_mul(x, y) in g.elements
    # solver re-substitution
    for e in (0, 2):
        sol = geometry.double_structure_solve(e)
        ok = ok and geometry.double_structure_identity(e).subs(
            {"x": sol.x, "y": sol.y, "d": sol.d}
        ).is_zero()
    _report(14, "ring axioms, Serre duality, twist roundtrip, closure, re-substitution", ok)


def test_every_claim_matches_the_golden_snapshot():
    # the benchmark's snapshot of all 25 claims, read only: verdicts and
    # computed/expected strings must stay byte-identical
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden_claims.json")
                        .read_text(encoding="utf-8"))
    assert sorted(golden) == claims.all_ids()
    for claim_id in claims.all_ids():
        result = claims.get_claim(claim_id).check()
        got = {"status": "PASS" if result.ok else "FAIL", "computed": result.computed,
               "expected": result.expected}
        assert got == golden[claim_id], claim_id
