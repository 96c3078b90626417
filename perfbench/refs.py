"""Independent reference answers for the benchmark workloads.

Nothing here imports the package under test.  The calculator answers are
closed forms (the Eq. (5) cubic, Bott's formula with Kunneth, the slope
form and the n < 18m stability region), and the pencil files are built so
that their generic rank and rank-1 count are known by construction.
`test_perfbench.py` cross-checks these against sympy.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# -- calculator closed forms ---------------------------------------------------


def chi_e(a, b):
    """chi(E(a,b)) from the Eq. (5) cubic, in integer arithmetic.

    3*chi = -18 + 36a + 34b + 18b^2 + 41ab + 2b^3 + 12ab^2 + ab^3.
    """
    num = -18 + 36 * a + 34 * b + 18 * b * b + 41 * a * b + 2 * b ** 3 + 12 * a * b * b + a * b ** 3
    if num % 3:
        raise ValueError("Eq. (5) gave a non-integer chi at (%d, %d)" % (a, b))
    return num // 3


def _bott(n, k):
    """(h^0, ..., h^n) of O(k) on P^n."""
    dims = [0] * (n + 1)
    if k >= 0:
        dims[0] = comb(n + k, n)
    if k <= -n - 1:
        dims[n] = comb(-k - 1, n)
    return dims


def cohom_table(a, b):
    """(h^0, ..., h^4) of O(a,b) on P1xP3: Kunneth product of Bott tables."""
    out = [0] * 5
    for p, x in enumerate(_bott(1, a)):
        for q, y in enumerate(_bott(3, b)):
            out[p + q] += x * y
    return tuple(out)


def slope(a, b, m, n):
    """O(a,b).O(m,n)^3 on P1xP3."""
    return a * n ** 3 + 3 * b * m * n * n


def stability(m, n):
    """Verdict for O(m,n): stable exactly when n < 18m (Remark 3.3)."""
    if n < 18 * m:
        return "stable"
    if n == 18 * m:
        return "semistable_not_stable"
    return "unstable"


# -- pencil files ----------------------------------------------------------------

# Projective points (p : q), in lowest terms with q >= 0, used as roots of
# the scale forms; (1 : 0) is the point at infinity m = 0.  The list is
# short so that roots of different forms often coincide, which the rank-1
# count must not double count.
ROOTS = ((0, 1), (1, 0), (1, 1), (-1, 1), (2, 1), (1, 2), (-3, 2), (3, 1))
# The scales of the forms, times SCALE_DEN so that the generator works in
# integers: Fraction(1), -1, 2, -3, 1/2 and -5/3.
SCALE_DEN = 6
SCALES = (6, -6, 12, -18, 3, -10)

# upper-triangular entry order of the file format
ENTRY_ORDER = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))

MALFORMED = (
    "bad_header",
    "line_count",
    "misplaced_star",
    "misplaced_sign",
    "zero_denominator",
    "non_homogeneous",
    "degree_mismatch",
)


def _det(rows):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def _form_from_roots(scale, roots):
    """Coefficients c[e] of l^e m^(d-e) for scale * prod (q*l - p*m)."""
    coeffs = [scale]
    for p, q in roots:
        nxt = [0] * (len(coeffs) + 1)
        for e, c in enumerate(coeffs):
            nxt[e + 1] += c * q
            nxt[e] -= c * p
        coeffs = nxt
    return coeffs


def _monomial(e, d):
    parts = []
    if e:
        parts.append("l" if e == 1 else "l^%d" % e)
    if d - e:
        parts.append("m" if d - e == 1 else "m^%d" % (d - e))
    return "*".join(parts)


def format_form(coeffs, rng):
    """Render a binary form in the file grammar, highest power of l first."""
    d = len(coeffs) - 1
    terms = [(e, c) for e, c in reversed(list(enumerate(coeffs))) if c]
    if not terms:
        return "0"
    tight = rng.random() < 0.3
    out = ""
    for k, (e, c) in enumerate(terms):
        mag = abs(c)
        body = _monomial(e, d)
        if mag != 1:
            body = "%s*%s" % (mag, body)
        if k == 0:
            out = ("-" if c < 0 else "") + body
        elif tight:
            out += ("-" if c < 0 else "+") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def valid_pencil(rng, rank, degree):
    """A pencil M = sum_k f_k v_k v_k^T of known generic rank and rank-1 count.

    Returns (entries, expected stdout).  V is an invertible integer matrix
    whose first `rank` columns are the v_k, so the generic rank is `rank`.
    By Cauchy-Binet every 2x2 minor of a rank-2 pencil is a constant times
    f_1 f_2, so its rank-1 points are the distinct roots of f_1 f_2.
    """
    while True:
        v = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if _det(v):
            break
    forms, roots_used = [], set()
    for _ in range(rank):
        roots = [rng.choice(ROOTS) for _ in range(degree)]
        roots_used.update(roots)
        forms.append(_form_from_roots(rng.choice(SCALES), roots))
    entries = {}
    for i, j in ENTRY_ORDER:
        coeffs = [0] * (degree + 1)
        for k, f in enumerate(forms):
            w = v[i][k] * v[j][k]
            if w:
                coeffs = [c + w * x for c, x in zip(coeffs, f)]
        entries[(i, j)] = [Fraction(c, SCALE_DEN) for c in coeffs]
    expected = "degree: %d\ngeneric rank: %d\n" % (degree, rank)
    if rank == 1:
        expected += "rank-1 parameters: whole line\n"
    elif rank == 2:
        expected += "rank-1 parameters: %d\n" % len(roots_used)
    return entries, expected


def pencil_lines(entries, degree, rng):
    """File lines: header, optional comments and blank lines, ten entries."""
    lines = ["degree %d" % degree]
    if rng.random() < 0.5:
        lines.insert(0, "# pencil of quadrics, degree %d" % degree)
    for ij in ENTRY_ORDER:
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "# entry %d%d" % ij)))
        lines.append(format_form(entries[ij], rng))
    return lines


def break_pencil(lines, degree, kind, rng):
    """Apply one grammar violation to the lines of a valid degree-d file."""
    lines = list(lines)
    header = next(i for i, ln in enumerate(lines) if ln.startswith("degree"))
    body = [i for i, ln in enumerate(lines) if i > header and ln and not ln.startswith("#")]
    nonzero = [i for i in body if lines[i] != "0"] or body
    target = rng.choice(nonzero)
    mono = _monomial(degree, degree)
    if kind == "bad_header":
        lines[header] = rng.choice(("degree", "degree two", "deg %d" % degree, "degree %d 1" % degree))
    elif kind == "line_count":
        if rng.random() < 0.5:
            del lines[rng.choice(body)]
        else:
            lines.append("0")
    elif kind == "misplaced_star":
        lines[target] = rng.choice(("*" + lines[target], lines[target] + "*", mono + "**m"))
    elif kind == "misplaced_sign":
        lines[target] = rng.choice((lines[target] + " +", mono + "*-1"))
    elif kind == "zero_denominator":
        lines[target] = "1/0*" + mono
    elif kind == "non_homogeneous":
        lines[target] = lines[target] + " + " + _monomial(degree + 1, degree + 1)
    elif kind == "degree_mismatch":
        lines[header] = "degree %d" % (degree + 1)
    else:
        raise ValueError("unknown malformation %r" % kind)
    return lines
