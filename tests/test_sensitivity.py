"""Which claims each mutated input moves.

One input is replaced at a time, the memoised derivations are cleared, and
`verify` runs every claim.  A row pins the claims that FAIL: 'FAIL' for a
wrong computed string, or the error class when the check raises (verify
reports that as a FAIL whose computed string is the error).

`prop5.3-e0`, `prop5.3-e2` and `prop5.4` solve the double-structure
identity against chi(E(a,b)) by Hirzebruch-Riemann-Roch of E, so every
mutation of c1 or c2 of E leaves that identity without a solution
(SolverError).  A point added to the Todd class of a 4-fold shifts each chi
by the rank, so in the identity it cancels (1 + 1 - 2) and moves only the
claims that compare HRR with a table or with the closed form of Eq. (5).
`lemma5.5`, `serre-duality` and `intro-h1` check standard facts about line
bundles on P1 and P1xP3 and read nothing of E.
"""

import json
from functools import lru_cache

import pytest

from p1p3bundle import chern, chow, cli, cohom, geometry, heisenberg, stability


def _bundle(c1, c2):
    """E replaced by the Serre bundle with c1 = c1[0] h1 + c1[1] h3 and
    c2 = c2[0] h1h3 + c2[1] h3^2."""
    def make():
        ring = chow.p1xp3()
        h1, h3 = ring.gen("h1"), ring.gen("h3")
        return chern.serre_bundle(c1[0] * h1 + c1[1] * h3, c2[0] * h1 * h3 + c2[1] * h3 * h3)
    return make


@lru_cache(maxsize=None)  # one ring per e, as chow.sigma
def _sigma_with_c0_squared_minus_e_minus_1(e):
    ring = chow.RingSpec("Sigma(%d)" % e, ("C0", "f"), (1, 1), {0: {(1, 1): -(e + 1)}},
                         {(1, 1): "pt"})
    c0, f = ring.gen("C0"), ring.gen("f")
    return chow._with_tangent(ring, ring.one() + 2 * c0 + (e + 2) * f + 4 * ring.gen("pt"))


def _todd_plus_a_point_on_4folds(todd):
    def mutated(ring):
        return todd(ring) + ring.cls({ring.point: 1}) if ring.dimension == 4 else todd(ring)
    return mutated


_LEMMA65 = {"lemma6.5-r1": "FAIL", "lemma6.5-r2": "FAIL", "lemma6.5-r3": "FAIL"}
_SECTION5 = {"prop5.3-e0": "SolverError", "prop5.3-e2": "SolverError", "prop5.4": "SolverError"}

ROWS = {
    "c2=8h1h3+7h3^2": (
        (chern, "abelian_surface_bundle", _bundle((2, 4), (8, 7))),
        {"eq5": "FAIL", "lemma4.2": "FAIL", "prop2.1": "FAIL", **_SECTION5},
    ),
    "c2=9h1h3+6h3^2": (
        (chern, "abelian_surface_bundle", _bundle((2, 4), (9, 6))),
        {"eq5": "FAIL", **_LEMMA65, "prop2.1": "InvalidParameterError", **_SECTION5},
    ),
    # det E is read off c1(E), so both c1 rows move the Section 3 claims
    "c1=3h1+4h3": (
        (chern, "abelian_surface_bundle", _bundle((3, 4), (8, 6))),
        {"eq5": "FAIL", **_LEMMA65, "prop3.1": "FAIL", "prop6.1b": "InconsistentError",
         "remark3.3": "InconsistentError", **_SECTION5},
    ),
    "c1=2h1+5h3": (
        (chern, "abelian_surface_bundle", _bundle((2, 5), (8, 6))),
        {"eq5": "FAIL", "lemma4.2": "FAIL", **_LEMMA65, "prop3.1": "FAIL",
         "prop6.1a": "InconsistentError", "prop6.2b": "FAIL", "remark3.3": "InconsistentError",
         **_SECTION5},
    ),
    "C0^2=-(e+1)pt": (
        (chow, "sigma", _sigma_with_c0_squared_minus_e_minus_1),
        {"lemma5.2": "FAIL", "prop5.3-e0": "InvalidParameterError",
         "prop5.3-e2": "InvalidParameterError", "prop5.4": "InvalidParameterError"},
    ),
    "todd+pt": (
        (chern, "todd", _todd_plus_a_point_on_4folds(chern.todd)),
        {"eq5": "FAIL", "hrr-oracle": "FAIL"},
    ),
    "TAU=SIGMA": ((heisenberg, "TAU", heisenberg.SIGMA), {"prop2.2": "FAIL"}),
    "h1(O_X)=3": (
        (cohom, "ABELIAN_SURFACE_TABLE", cohom.CohomTable((1, 3, 1, 0, 0))),
        {"lemma3.4": "FAIL"},
    ),
    # the oracle's positive instances are paper data: no destabilizer corner
    # of E reaches one, and the octic witness comes from the q >= 8 clause
    "no-positive-instances": ((stability, "POSITIVE_INSTANCES", ()), {}),
}


def _clear_derivations():
    for module in (chern, geometry, stability):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


@pytest.mark.parametrize("row", ROWS)
def test_claim_sensitivity(row, monkeypatch, capsys):
    (module, name, value), moved = ROWS[row]
    try:
        with monkeypatch.context() as m:
            m.setattr(module, name, value)
            _clear_derivations()
            code = cli.main(["verify", "--json"])
    finally:
        _clear_derivations()
    failed = {}
    for r in json.loads(capsys.readouterr().out)["claims"]:
        if r["status"] == "FAIL":
            raised = r["expected"] == "no error"
            failed[r["id"]] = r["computed"].partition(":")[0] if raised else "FAIL"
    assert failed == moved
    assert code == (1 if moved else 0)
