"""Command-line interface: claim verification, listing, and calculators.

Exit status contract: 0 all pass / success, 1 any claim failed, 2 usage
or parse errors (including unknown claim ids and malformed pencil files).
A claim check that raises an ArtifactError is a failed claim whose
computed string is the error: `verify` reports it and runs the others.

Importing this module loads only `claims` and `errors` from the package:
each calculator imports the computation modules it uses, and each claim
check imports its own (see `claims`), so a single `verify --claim` or
`calc` process compiles and loads only what that command needs.

`parse_form` reads each pencil entry term by term into an int (or, where
a number has a '/', Fraction) coefficient and the exponents of l and m,
and returns the summed terms as the coefficient tuple `pencil` stores.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
import time

from . import claims
from .errors import ArtifactError, PencilParseError


def _run_verify(ids, as_json, out):
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
        out.write(json.dumps(report, indent=2, sort_keys=True))
        out.write("\n")
    else:
        for r in records:
            out.write("%-16s %s  [%s]\n" % (r["id"], r["status"], r["anchor"]))
            if r["status"] == "FAIL":
                out.write("    computed: %s\n    expected: %s\n" % (r["computed"], r["expected"]))
        out.write("%d passed, %d failed\n" % (n_pass, n_fail))
    return 0 if n_fail == 0 else 1


def _run_list(out):
    for claim_id in claims.all_ids():
        c = claims.get_claim(claim_id)
        out.write("%-16s %s  [%s]\n" % (c.id, c.description, c.anchor))
    return 0


# -- calculators ---------------------------------------------------------------


def _calc_chi(a, b, out):
    from . import chern, chow

    ring = chow.p1xp3()
    twisted = chern.twist(chern.abelian_surface_bundle(), a * ring.gen("h1") + b * ring.gen("h3"))
    out.write("%s\n" % chern.euler_characteristic(twisted).constant())
    return 0


def _calc_cohom(a, b, out):
    from . import cohom

    out.write("%s\n" % (tuple(cohom.cohom_p1xp3(a, b)),))
    return 0


def _calc_slope(m, n, a, b, out):
    from . import stability

    value = stability.slope_dot((a, b), stability.Polarization(m, n)).constant()
    out.write("%s\n" % value)
    return 0


def _calc_pencil_rank(path, out):
    p = load_pencil(path)
    out.write("degree: %d\n" % p.degree)
    rank = p.generic_rank()
    out.write("generic rank: %d\n" % rank)
    if rank <= 2:
        count = p.rank1_parameter_count()  # an int, or pencil.WHOLE_LINE
        if isinstance(count, int):
            out.write("rank-1 parameters: %d\n" % count)
        else:
            out.write("rank-1 parameters: whole line\n")
    return 0


# -- pencil file parsing --------------------------------------------------------

# upper-triangular entry order in the input file
ENTRY_ORDER = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))

# ASCII only: \d and \w would also match digits such as '٣'
_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_]\w*)(?:\^(?P<exp>\d+))?|(?P<star>\*))",
    re.ASCII,
)
_HEADER = re.compile(r"degree\s+(-?\d+)", re.ASCII)

# The largest degree a pencil file may declare.  Entries are homogeneous of
# this degree, so no coefficient list of the rank analysis (4x4 minors have
# degree 4d) is longer than 4 * MAX_DEGREE + 1.
MAX_DEGREE = 100


@functools.lru_cache(maxsize=None)
def _fraction_type():
    """fractions.Fraction, imported on first use: `import p1p3bundle.cli`
    stays free of it, and most pencil entries have no '/'."""
    from fractions import Fraction

    return Fraction


def _number(token):
    """The int of a token of ASCII digits, or the Fraction p/q of a token
    'p/q' (ZeroDivisionError when q is 0).  CPython refuses to convert more
    than sys.get_int_max_str_digits() digits (4300 by default) with a
    ValueError, the only one such a token can raise."""
    try:
        if "/" not in token:
            return int(token)
        p, q = token.split("/")
        return _fraction_type()(int(p), int(q))
    except ValueError:
        raise PencilParseError("number of %d characters is too long" % len(token)) from None


def parse_form(text, degree):
    """Parse a binary form of degree `degree` in l, m, like
    '3*l^2*m - 1/2*m^3', into its degree + 1 coefficients (index i holds
    that of l^i*m^(degree-i)).

    Each term is read as a coefficient (an int, or a Fraction once one of
    its numbers has a '/') and the exponents of l and m; the terms are
    summed by exponents, and a nonzero sum whose exponents do not add up
    to `degree` is rejected.  An entry is rejected as soon as it starts a
    term past MAX_DEGREE + 1, the monomial count of a binary form of degree
    MAX_DEGREE, so an overlong entry costs no more than that many terms.
    """
    pos = 0
    read = []  # [coefficient, exponent of l, exponent of m] of each term so far
    sign = 1  # of the next term
    state = "start"  # or "sign", "factor", "star": the kind of the last token
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos:
            raise PencilParseError("cannot parse %r at position %d" % (text, pos))
        pos = match.end()
        kind = match.lastgroup  # 'exp' for a variable with an exponent
        if kind == "star":
            if state != "factor":
                raise PencilParseError("misplaced '*' in %r" % text)
            state = "star"
            continue
        if kind == "sign":
            if state == "sign" or state == "star":
                raise PencilParseError("misplaced sign in %r" % text)
            sign = 1 if match.group("sign") == "+" else -1
            state = "sign"
            continue
        token = match.group("num") if kind == "num" else match.group("var")
        if kind != "num" and token not in ("l", "m"):
            raise PencilParseError("bad variable %r in %r: use l, m and l^2" % (token, text))
        if state == "factor":
            raise PencilParseError("missing '*' before %r in %r" % (token, text))
        if state != "star":  # the factor starts a term
            if len(read) > MAX_DEGREE:
                raise PencilParseError("entry has more than %d terms" % (MAX_DEGREE + 1))
            read.append([sign, 0, 0])
        term = read[-1]
        if kind != "num":
            term[1 if token == "l" else 2] += 1 if kind == "var" else _number(match.group("exp"))
        else:
            try:
                term[0] *= _number(token)
            except ZeroDivisionError:
                raise PencilParseError("zero denominator in %r" % text) from None
        state = "factor"
    if state == "star":
        raise PencilParseError("dangling '*' in %r" % text)
    if state == "sign":
        raise PencilParseError("dangling sign in %r" % text)
    sums = {}  # (exponent of l, exponent of m) -> coefficient
    for coeff, el, em in read:
        sums[el, em] = sums.get((el, em), 0) + coeff
    form = [0] * (degree + 1)
    for (el, em), c in sums.items():
        if c:
            if el + em != degree:
                raise PencilParseError("%r is not a form of degree %d" % (text, degree))
            form[el] = c
    return tuple(form)


def load_pencil(path):
    """Read a pencil file: 'degree d' (0 <= d <= MAX_DEGREE) then the 10
    upper-triangular entries.  Reading stops at the first significant line
    past those 11, so an overlong file is rejected without being read whole."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            significant = (ln for ln in map(str.strip, fh) if ln and not ln.startswith("#"))
            lines = list(itertools.islice(significant, 12))
    except OSError as exc:
        raise PencilParseError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise PencilParseError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    if not lines or not lines[0].startswith("degree"):
        raise PencilParseError("first line must be 'degree d'")
    header = _HEADER.fullmatch(lines[0])
    if not header:
        raise PencilParseError("malformed degree header %r" % lines[0])
    degree = _number(header.group(1))
    if degree < 0:
        raise PencilParseError("degree must be nonnegative")
    if degree > MAX_DEGREE:
        raise PencilParseError("degree %d is above the cap of %d" % (degree, MAX_DEGREE))
    body = lines[1:]
    if len(body) != 10:
        got = "more than 10" if len(body) > 10 else len(body)
        raise PencilParseError("expected 10 entry lines, got %s" % got)
    from . import pencil

    entries = [[None] * 4 for _ in range(4)]  # ENTRY_ORDER and symmetry fill all 16
    for (i, j), text in zip(ENTRY_ORDER, body):
        entries[i][j] = entries[j][i] = parse_form(text, degree)
    return pencil.QuadricPencil(entries)


# -- argument parsing -------------------------------------------------------------


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

    chi = calc_sub.add_parser("chi", help="chi(E(a,b))")
    chi.add_argument("a", type=int)
    chi.add_argument("b", type=int)

    coh = calc_sub.add_parser("cohom", help="cohomology table of O(a,b)")
    coh.add_argument("a", type=int)
    coh.add_argument("b", type=int)

    slope = calc_sub.add_parser("slope", help="O(a,b).O(m,n)^3")
    slope.add_argument("m", type=int)
    slope.add_argument("n", type=int)
    slope.add_argument("a", type=int)
    slope.add_argument("b", type=int)

    pr = calc_sub.add_parser("pencil-rank", help="rank analysis of a pencil file")
    pr.add_argument("file")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return int(exc.code) if exc.code else 0

    out = sys.stdout
    try:
        if args.command == "verify":
            ids = sorted(set(args.claim)) if args.claim else claims.all_ids()
            for claim_id in ids:
                claims.get_claim(claim_id)  # fail fast on unknown ids
            return _run_verify(ids, args.json, out)
        if args.command == "list":
            return _run_list(out)
        if args.calc_command == "chi":
            return _calc_chi(args.a, args.b, out)
        if args.calc_command == "cohom":
            return _calc_cohom(args.a, args.b, out)
        if args.calc_command == "slope":
            return _calc_slope(args.m, args.n, args.a, args.b, out)
        if args.calc_command == "pencil-rank":
            return _calc_pencil_rank(args.file, out)
        parser.error("unknown command")
    except ArtifactError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
