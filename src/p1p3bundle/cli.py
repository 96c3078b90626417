"""Command-line interface: claim verification, listing, and calculators.

Exit status contract: 0 all pass / success, 1 any claim failed, 2 usage
or parse errors (including unknown claim ids and malformed pencil files),
a calculator answer with more digits than CPython converts to a string
(`sys.get_int_max_str_digits()`, 4300 by default), or output that cannot
be written (`error: cannot write output: ...`).  Apart from that last
case, an exit of 2 writes nothing to stdout.  A claim check that raises
an ArtifactError is a failed claim whose computed string is the error:
`verify` reports it and runs the others.

Importing this module loads only `claims` and `errors` from the package:
each calculator imports the computation modules it uses, and each claim
check imports its own (see `claims`), so a single `verify --claim` or
`calc` process compiles and loads only what that command needs.  The
commands return their output, and `main` writes it in one place.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import claims
from .errors import ArtifactError


def _run_verify(ids, as_json):
    """(exit status, report text) of the claims `ids`."""
    records = []
    n_pass = n_fail = 0
    for claim_id in ids:
        claim = claims.get_claim(claim_id)
        start = time.perf_counter()
        try:
            result = claim.check()
        except ArtifactError as exc:  # one raising check is a FAIL; the others still run
            result = claims.ClaimResult(False, "%s: %s" % (type(exc).__name__, exc), "no error")
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        status = "PASS" if result.ok else "FAIL"
        if result.ok:
            n_pass += 1
        else:
            n_fail += 1
        records.append({
            "id": claim.id,
            "status": status,
            "computed": result.computed,
            "expected": result.expected,
            "anchor": claim.anchor,
            "elapsed_ms": elapsed_ms,
        })
    if as_json:
        report = {"claims": records, "summary": {"pass": n_pass, "fail": n_fail}}
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        for r in records:
            lines.append("%-16s %s  [%s]\n" % (r["id"], r["status"], r["anchor"]))
            if r["status"] == "FAIL":
                lines.append("    computed: %s\n    expected: %s\n" % (r["computed"], r["expected"]))
        lines.append("%d passed, %d failed\n" % (n_pass, n_fail))
        text = "".join(lines)
    return (0 if n_fail == 0 else 1), text


def _run_list():
    return "".join("%-16s %s  [%s]\n" % (c.id, c.description, c.anchor)
                   for c in map(claims.get_claim, claims.all_ids()))


# -- calculators ---------------------------------------------------------------


def _calc_chi(a, b):
    from . import chern, chow

    ring = chow.p1xp3()
    twisted = chern.twist(chern.abelian_surface_bundle(), a * ring.gen("h1") + b * ring.gen("h3"))
    return chern.euler_characteristic(twisted).constant()


def _calc_cohom(a, b):
    from . import cohom

    return tuple(cohom.cohom_p1xp3(a, b))


def _calc_slope(m, n, a, b):
    from . import stability

    return stability.slope_dot((a, b), stability.Polarization(m, n)).constant()


def _calc_pencil_rank(path):
    from . import pencilfile

    p = pencilfile.load_pencil(path)
    rank = p.generic_rank()
    lines = ["degree: %d" % p.degree, "generic rank: %d" % rank]
    if rank <= 2:
        count = p.rank1_parameter_count()  # an int, or pencil.WHOLE_LINE
        lines.append("rank-1 parameters: %s" % (count if isinstance(count, int) else "whole line"))
    return "\n".join(lines)


# -- argument parsing -------------------------------------------------------------

# calc command -> (help, type of its positionals, their names, the calculator
# called with them in that order)
_CALC_ARGS = {
    "chi": ("chi(E(a,b))", int, "a b", _calc_chi),
    "cohom": ("cohomology table of O(a,b)", int, "a b", _calc_cohom),
    "slope": ("O(a,b).O(m,n)^3", int, "m n a b", _calc_slope),
    "pencil-rank": ("rank analysis of a pencil file", str, "file", _calc_pencil_rank),
}


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse tree, built once per process (argparse reads sys.stderr
    only when it prints, so redirecting it between calls still works)."""
    parser = argparse.ArgumentParser(
        prog="p1p3bundle",
        description="Exact verification of the rank-2 bundle computations on P1xP3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run claim checks")
    verify.add_argument("--claim", action="append", metavar="ID",
                        help="run only this claim id (repeatable)")
    verify.add_argument("--json", action="store_true", help="machine-readable report")

    sub.add_parser("list", help="list claim ids")

    calc = sub.add_parser("calc", help="exact calculators")
    calc_sub = calc.add_subparsers(dest="calc_command", required=True)
    for name, (help_, kind, params, _) in _CALC_ARGS.items():
        command = calc_sub.add_parser(name, help=help_)
        for param in params.split():
            command.add_argument(param, type=kind)
        command.set_defaults(calc_parser=command)
    return parser


def _error(message):
    sys.stderr.write("error: %s\n" % message)
    return 2


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "calc":
            _, kind, params, calc = _CALC_ARGS[args.calc_command]
            values = [getattr(args, param) for param in params.split()]
            for param, value in zip(params.split(), values):
                # CPython 3.11's argparse gives [] to a positional after a repeated '--'
                if value.__class__ is not kind:
                    args.calc_parser.error("argument %s: expected %s" % (param, kind.__name__))
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return int(exc.code) if exc.code else 0

    status = 0
    try:
        if args.command == "verify":
            ids = sorted(set(args.claim)) if args.claim else claims.all_ids()
            for claim_id in ids:
                claims.get_claim(claim_id)  # fail fast on unknown ids
            status, text = _run_verify(ids, args.json)
        elif args.command == "list":
            text = _run_list()
        else:
            answer = calc(*values)
    except ArtifactError as exc:
        return _error(exc)
    if args.command == "calc":
        try:
            text = "%s\n" % (answer,)
        except ValueError:  # str() of an int past sys.get_int_max_str_digits() digits
            return _error("the answer has more than %d digits" % sys.get_int_max_str_digits())
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit, where what is left in
        # its buffer would fail once more: send it to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _error("cannot write output: %s" % exc)
    return status


if __name__ == "__main__":
    sys.exit(main())
