"""Command-line interface: claim verification, listing, and calculators.

Exit status contract: 0 all pass / success, 1 any claim failed, 2 usage
or parse errors (including unknown claim ids and malformed pencil files).
A claim check that raises an ArtifactError is a failed claim whose
computed string is the error: `verify` reports it and runs the others.

Importing this module loads only `claims` and `errors` from the package:
each calculator imports the computation modules it uses, and each claim
check imports its own (see `claims`), so a single `verify --claim` or
`calc` process compiles and loads only what that command needs.

`parse_form` reads each pencil entry in whole terms, one match of the
term pattern and one findall of its factors per term, into an int (or,
where a number has a '/', one Fraction) coefficient and the exponents of
l and m, and returns the summed terms as the coefficient tuple `pencil`
stores.  Only a rejected entry is scanned token by token, to name its
first bad token.  The patterns are compiled on the first pencil file.
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

# The largest degree a pencil file may declare.  Entries are homogeneous of
# this degree, so no coefficient list of the rank analysis (4x4 minors have
# degree 4d) is longer than 4 * MAX_DEGREE + 1.
MAX_DEGREE = 100


@functools.lru_cache(maxsize=None)
def _pencil_patterns():
    """(token, term, factor, header): the patterns of the pencil file format,
    compiled on first use, so that `import p1p3bundle.cli` (and so a cold
    `verify`) compiles none of them.  ASCII only: \\d and \\w would also
    match digits such as '٣'.  A term is an optional sign and factors joined
    by '*'; findall of `factor` over a term gives (p, q, variable, exponent)
    for each factor p, p/q, l, l^e, m or m^e."""
    factor = r"\d+(?:/\d+)?|[lm](?:\^\d+)?"
    return (
        re.compile(r"\s*(?:(?P<sign>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_]\w*)"
                   r"(?:\^(?P<exp>\d+))?|(?P<star>\*))", re.ASCII),
        re.compile(r"\s*(?:([+-])\s*)?(?:%s)(?:\s*\*\s*(?:%s))*" % (factor, factor), re.ASCII),
        re.compile(r"(\d+)(?:/(\d+))?|([lm])(?:\^(\d+))?", re.ASCII),
        re.compile(r"degree\s+(-?\d+)", re.ASCII),
    )


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

    Each term is one match of the term pattern and one findall of its
    factors: the coefficient is an int, or one Fraction once one of its
    numbers has a '/', and the exponents of l and m are summed.  The terms
    are summed by exponents, and a nonzero sum whose exponents do not add
    up to `degree` is rejected.  An entry is rejected as soon as it starts
    a term past MAX_DEGREE + 1, the monomial count of a binary form of
    degree MAX_DEGREE, so an overlong entry costs no more than that many
    terms.  An entry that the terms do not read whole goes to `_reject`,
    which names its first bad token.
    """
    _, term, factor, _ = _pencil_patterns()
    form = [None] * (degree + 1)  # None until a term of that monomial is read
    other = {}  # (exponent of l, exponent of m) -> coefficient, off `degree`
    pos, end, count = 0, len(text), 0
    while pos < end:
        match = term.match(text, pos) if count <= MAX_DEGREE else None
        if not match or (count and not match.group(1)):  # a later term needs its sign
            _reject(text)
        count += 1
        c, den, el, em = -1 if match.group(1) == "-" else 1, None, 0, 0
        try:
            for p, q, var, e in factor.findall(text, pos, match.end()):
                if p:
                    c *= int(p)
                    if q:
                        den = int(q) if den is None else den * int(q)
                elif var == "l":
                    el += int(e) if e else 1
                else:
                    em += int(e) if e else 1
            if den is not None:
                c = _fraction_type()(c, den)
        except (ValueError, ZeroDivisionError):  # a number too long, or a zero denominator
            _reject(text)
        pos = match.end()
        if el + em == degree:
            form[el] = c if form[el] is None else form[el] + c
        else:
            other[el, em] = other.get((el, em), 0) + c
    if any(other.values()):
        raise PencilParseError("%r is not a form of degree %d" % (text, degree))
    return tuple([c or 0 for c in form])  # a sum that cancels is the int 0


def _reject(text):
    """Raise the PencilParseError of the first bad token of a rejected entry:
    scan it token by token, keeping only the kind of the last token and the
    term count, up to the term past MAX_DEGREE + 1."""
    token = _pencil_patterns()[0]
    pos, count = 0, 0
    state = "start"  # or "sign", "factor", "star": the kind of the last token
    while pos < len(text):
        match = token.match(text, pos)
        if not match:
            raise PencilParseError("cannot parse %r at position %d" % (text, pos))
        pos = match.end()
        kind = match.lastgroup  # 'exp' for a variable with an exponent
        if kind == "star":
            if state != "factor":
                raise PencilParseError("misplaced '*' in %r" % text)
        elif kind == "sign":
            if state == "sign" or state == "star":
                raise PencilParseError("misplaced sign in %r" % text)
        else:
            name = match.group("num") if kind == "num" else match.group("var")
            if kind != "num" and name not in ("l", "m"):
                raise PencilParseError("bad variable %r in %r: use l, m and l^2" % (name, text))
            if state == "factor":
                raise PencilParseError("missing '*' before %r in %r" % (name, text))
            if state != "star":  # the factor starts a term
                count += 1
                if count > MAX_DEGREE + 1:
                    raise PencilParseError("entry has more than %d terms" % (MAX_DEGREE + 1))
            try:
                _number(name if kind == "num" else match.group("exp") or "1")
            except ZeroDivisionError:
                raise PencilParseError("zero denominator in %r" % text) from None
            kind = "factor"
        state = kind
    if state == "star":
        raise PencilParseError("dangling '*' in %r" % text)
    if state == "sign":
        raise PencilParseError("dangling sign in %r" % text)
    raise AssertionError("parse_form rejected %r, which has no bad token" % text)


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
    header = _pencil_patterns()[3].fullmatch(lines[0])
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

    # the entry lines are the entries i <= j in pencil.UPPER order
    return pencil.QuadricPencil(pencil.symmetric([parse_form(text, degree) for text in body]))


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
