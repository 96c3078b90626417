"""The pencil file format read by `calc pencil-rank`.

A pencil file is a header 'degree d' (0 <= d <= MAX_DEGREE) and the ten
upper-triangular entries of a symmetric 4x4 matrix, one per line, in
`pencil.UPPER` order; blank lines and lines starting with '#' (after
optional blanks) are skipped.  Each entry is a binary form of degree d
in l and m:

    entry  := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := number | number '/' number | variable ['^' number]
    sign   := '+' | '-'

where a number is ASCII digits, a variable is l or m, and blanks may
precede every token.  `parse_form` reads an entry in one scan of the
token pattern: each term's coefficient is an int, or one Fraction where a
number has a '/', and the same scan names the first bad token of a
rejected entry.  Only `calc pencil-rank` imports this module.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from . import pencil
from .errors import PencilParseError

# The largest degree a pencil file may declare.  Entries are homogeneous of
# this degree, so no coefficient list of the rank analysis (4x4 minors have
# degree 4d) is longer than 4 * MAX_DEGREE + 1.
MAX_DEGREE = 100

# ASCII only: \d and \w would also match digits such as '٣'.  The groups
# are sign, numerator, denominator, variable, exponent and star.
TOKEN = re.compile(r"\s*(?:([+-])|(\d+)(?:/(\d+))?|([A-Za-z_]\w*)(?:\^(\d+))?|(\*))", re.ASCII)
HEADER = re.compile(r"degree\s+(-?\d+)", re.ASCII)

# the kind of the last token read
_START, _SIGN, _FACTOR, _STAR = range(4)


def _too_long(length):
    """CPython converts at most sys.get_int_max_str_digits() digits (4300
    by default) and raises ValueError past that."""
    return PencilParseError("number of %d characters is too long" % length)


def parse_form(text, degree):
    """Parse a binary form of degree `degree` in l, m, like
    '3*l^2*m - 1/2*m^3', into its degree + 1 coefficients (index i holds
    that of l^i*m^(degree-i)).

    The terms are summed by exponents, and a nonzero sum whose exponents do
    not add up to `degree` is rejected.  An entry is rejected as soon as it
    starts a term past MAX_DEGREE + 1, the monomial count of a binary form
    of degree MAX_DEGREE, so an overlong entry costs no more than that many
    terms.
    """
    sums = {}  # (exponent of l, exponent of m) -> sum of the terms read so far
    pos, end, count, last, negative = 0, len(text), 0, _START, False
    while pos < end:
        match = TOKEN.match(text, pos)
        if not match:
            raise PencilParseError("cannot parse %r at position %d" % (text, pos))
        pos = match.end()
        sign, p, q, var, e, star = match.groups()
        if star:
            if last != _FACTOR:
                raise PencilParseError("misplaced '*' in %r" % text)
            last = _STAR
            continue
        if sign:
            if last == _SIGN or last == _STAR:
                raise PencilParseError("misplaced sign in %r" % text)
            negative, last = sign == "-", _SIGN
            continue
        if var and var != "l" and var != "m":
            raise PencilParseError("bad variable %r in %r: use l, m and l^2" % (var, text))
        if last == _FACTOR:
            raise PencilParseError("missing '*' before %r in %r" % (var or text[match.start(2):pos], text))
        if last != _STAR:  # the factor starts a term: store the one before it
            if count:
                key = el, em
                sums[key] = sums.get(key, 0) + (c if den is None else Fraction(c, den))
            count += 1
            if count > MAX_DEGREE + 1:
                raise PencilParseError("entry has more than %d terms" % (MAX_DEGREE + 1))
            c, den, el, em = -1 if negative else 1, None, 0, 0
        last = _FACTOR
        try:
            if p:
                c *= int(p)
                if q:
                    q = int(q)
                    if not q:
                        raise PencilParseError("zero denominator in %r" % text)
                    den = q if den is None else den * q
            elif var == "l":
                el += int(e) if e else 1
            else:
                em += int(e) if e else 1
        except ValueError:
            raise _too_long(pos - match.start(2 if p else 5)) from None
    if last == _STAR:
        raise PencilParseError("dangling '*' in %r" % text)
    if last == _SIGN:
        raise PencilParseError("dangling sign in %r" % text)
    if count:
        key = el, em
        sums[key] = sums.get(key, 0) + (c if den is None else Fraction(c, den))
    form = [0] * (degree + 1)
    for (el, em), c in sums.items():
        if el + em == degree:
            form[el] = c or 0  # a sum that cancels is the int 0
        elif c:
            raise PencilParseError("%r is not a form of degree %d" % (text, degree))
    return tuple(form)


def load_pencil(path):
    """Read a pencil file into a `pencil.QuadricPencil`.  Reading stops at
    the first significant line past the header and the ten entries, so an
    overlong file is rejected without being read whole."""
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
    header = HEADER.fullmatch(lines[0])
    if not header:
        raise PencilParseError("malformed degree header %r" % lines[0])
    try:
        degree = int(header.group(1))
    except ValueError:
        raise _too_long(len(header.group(1))) from None
    if degree < 0:
        raise PencilParseError("degree must be nonnegative")
    if degree > MAX_DEGREE:
        raise PencilParseError("degree %d is above the cap of %d" % (degree, MAX_DEGREE))
    body = lines[1:]
    if len(body) != 10:
        got = "more than 10" if len(body) > 10 else len(body)
        raise PencilParseError("expected 10 entry lines, got %s" % got)
    return pencil.QuadricPencil(pencil.symmetric([parse_form(text, degree) for text in body]))
