"""Exact-arithmetic foundation.

Sparse multivariate polynomials in named formal parameters over the
rationals, and the solver of a polynomial identity for its unknowns; on
integer coefficient lists, a univariate gcd (primitive pseudo-remainder
sequence), the count of distinct roots it gives, and the Kronecker format
(a polynomial matrix packed at 2**b past every root of its minors, and a
packed value read back as signed base-2**b digits); and the one
elimination, fraction-free Bareiss on integer matrices, which gives a
pencil's ranks and the solver's echelon rows.
A rational number is an `int` when it is integral and a `Fraction` only
where it has a denominator; `NUMBERS` tests that, so no float or bool
ever enters.  Everything here is immutable and pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .errors import InvalidParameterError, SolverError

# The one test of an exact number: its class is in NUMBERS.  A bool (an int
# subclass) and a float (it shows a rational it does not hold) are not.
NUMBERS = (int, Fraction)

# A monomial is a tuple of (variable name, exponent) pairs, sorted by name,
# with all exponents > 0.  The empty tuple is the constant monomial.
_ONE = ()


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_degree(mono):
    return sum(e for _, e in mono)


def _require_numbers(assignment):
    """InvalidParameterError unless every value is an int or a Fraction."""
    if not all(x.__class__ in NUMBERS for x in assignment.values()):
        raise InvalidParameterError("values must be ints or Fractions: %r" % (assignment,))


def _fraction(x):
    if x.__class__ not in NUMBERS:
        raise InvalidParameterError("expected an int or a Fraction, got %r" % (x,))
    return Fraction(x)


class ParamPoly:
    """Sparse polynomial with rational coefficients in named variables.

    Terms are stored as a dict monomial -> coefficient with no zero
    coefficients; an integral coefficient is stored as an `int` (a
    `Fraction` with denominator 1 becomes its numerator), any other as a
    `Fraction`, so the arithmetic stays in ints wherever it can.  The
    accessors `constant` and `coefficient` return the number held, an int
    where it is integral (`value` returns the number as it sums, an int on
    integer points).
    The canonical term order (used for serialization) is graded
    lexicographic over alphabetically sorted variable names.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = kept = {}
        for m, c in terms.items():
            if c.__class__ is not int:
                if c.__class__ not in NUMBERS:
                    raise InvalidParameterError("a coefficient must be an int or a Fraction: %r"
                                                % (c,))
                if c.denominator == 1:
                    c = int(c.numerator)
            if c:
                kept[m] = c

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(value):
        if value.__class__ is int:  # already in canonical form
            p = object.__new__(ParamPoly)
            p.terms = {_ONE: value} if value else {}
            return p
        return ParamPoly({_ONE: value})

    @staticmethod
    def var(name, exponent=1):
        if exponent < 0:
            raise InvalidParameterError("negative exponent")
        if exponent == 0:
            return ParamPoly.const(1)
        return ParamPoly({((name, exponent),): 1})

    @staticmethod
    def _coerce(x):
        if isinstance(x, ParamPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return ParamPoly.const(x)
        return NotImplemented

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        """True when the constant monomial is the only one with a term."""
        return len(self.terms) <= (_ONE in self.terms)

    def constant(self):
        """The value of a constant polynomial: an int, or a Fraction where it
        is not integral."""
        if not self.is_constant():
            raise InvalidParameterError("polynomial is not constant: %s" % self)
        return self.terms.get(_ONE, 0)

    def variables(self):
        return sorted({v for m in self.terms for v, _ in m})

    def total_degree(self):
        if not self.terms:
            return 0
        return max(_mono_degree(m) for m in self.terms)

    def coefficient(self, mono):
        return self.terms.get(tuple(sorted(mono)), 0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = ParamPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return ParamPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = ParamPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ in NUMBERS:  # scales each coefficient
            return ParamPoly({m: c * other for m, c in self.terms.items()})
        other = ParamPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return ParamPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n.__class__ is not int or n < 0:
            raise InvalidParameterError("exponent must be a nonnegative int")
        result = ParamPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if other.__class__ in NUMBERS:  # a bool or a float is unequal
            other = ParamPoly.const(other)
        elif not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {_ONE}:  # equal to its number, so hashed as that
            return hash(self.terms.get(_ONE, 0))
        return hash(frozenset(self.terms.items()))

    # -- substitution --------------------------------------------------------

    def subs(self, assignment):
        """Substitute ints or Fractions for some variables (exact); any other
        value (a float, a bool, a ParamPoly) raises InvalidParameterError."""
        _require_numbers(assignment)
        terms = {}
        for mono, coeff in self.terms.items():
            for v, e in mono:
                if v in assignment:
                    coeff *= assignment[v] ** e
            rest = tuple((v, e) for v, e in mono if v not in assignment)
            terms[rest] = terms.get(rest, 0) + coeff
        return ParamPoly(terms)

    def value(self, assignment):
        """The value at a full point of ints and Fractions: an int or a Fraction.
        Any other value raises InvalidParameterError, as in `subs`.

        The powers of a monomial are multiplied first, so that on integer
        points the sum stays in ints and only a term whose coefficient has
        a denominator costs a Fraction product.
        """
        _require_numbers(assignment)
        total = 0
        for mono, coeff in self.terms.items():
            v = 1
            for name, e in mono:
                v *= assignment[name] ** e
            total += coeff * v
        return total

    def collect(self, on_vars):
        """Group terms by their monomial in `on_vars`.

        Returns a dict mapping monomials (over `on_vars` only) to the
        coefficient polynomial in the remaining variables.
        """
        on_vars = set(on_vars)
        groups = {}
        for mono, coeff in self.terms.items():
            outer = tuple((v, e) for v, e in mono if v in on_vars)
            inner = tuple((v, e) for v, e in mono if v not in on_vars)
            groups.setdefault(outer, {})
            groups[outer][inner] = groups[outer].get(inner, 0) + coeff
        return {m: ParamPoly(ts) for m, ts in groups.items()}

    # -- display ---------------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order over sorted variable names."""
        allvars = self.variables()

        def key(item):
            mono, _ = item
            exps = dict(mono)
            return (_mono_degree(mono), tuple(exps.get(v, 0) for v in allvars))

        return sorted(self.terms.items(), key=key, reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for v, e in mono:
                factors.append(v if e == 1 else "%s^%d" % (v, e))
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = str(abs(coeff)) + "*" + "*".join(factors)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __repr__(self):
        return "ParamPoly(%s)" % self


def solve_zero_identity(identity, unknowns):
    """[assignment] of `unknowns` making `identity` vanish, unique over Q.

    By exact elimination: the coefficients of the identity in its free
    variables (those not in `unknowns`) must all vanish.  Each round takes
    the ones of degree <= 1 in the unknowns, each scaled by the lcm of its
    denominators to an integer row, brings them to echelon form by Bareiss
    elimination and clears the columns above the pivots, fixes every unknown
    whose row involves no other, and substitutes it everywhere.
    SolverError if the system is inconsistent, a round fixes nothing
    (underdetermined or not triangular), or the solution does not
    re-substitute to zero.
    """
    unknowns = tuple(unknowns)
    equations = identity.collect(set(identity.variables()) - set(unknowns)).values()
    solution = {}
    while len(solution) < len(unknowns):
        open_ = [u for u in unknowns if u not in solution]
        rows = []
        for eq in equations:
            if eq.total_degree() <= 1:
                row = [eq.coefficient(((u, 1),)) for u in open_] + [-eq.coefficient(_ONE)]
                scale = lcm(*[x.denominator for x in row])
                rows.append([x.numerator * (scale // x.denominator) for x in row])
        rank, pivots, echelon = _bareiss(rows)
        # clear each pivot's column above it as well, on ints, so that a row
        # is free of the other open unknowns exactly when its reduced row
        # over Q is
        for i in range(rank - 1, 0, -1):
            low, lead = echelon[i], echelon[i][pivots[i]]
            for row in echelon[:i]:
                f = row[pivots[i]]
                if f:
                    row[:] = [lead * x - f * y for x, y in zip(row, low)]
        fixed = {}
        for row, col in zip(echelon, pivots):
            if col == len(open_):
                raise SolverError("inconsistent linear equations in %s" % open_)
            if not any(row[col + 1:-1]):
                fixed[open_[col]] = Fraction(row[-1], row[col])
        if not fixed:
            raise SolverError("cannot fix any of %s: underdetermined or not triangular" % open_)
        solution.update(fixed)
        equations = [eq.subs(fixed) for eq in equations]
    if not identity.subs(solution).is_zero():
        raise SolverError("re-substituting %s leaves a nonzero remainder" % solution)
    return [solution]


# -- univariate arithmetic over Z (integer coefficient lists, lowest degree first)


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    if not a:
        return []
    content = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [c // content for c in a]


def _c_gcd(a, b):
    """gcd of a and b over Q, as a primitive integer list with positive lead.

    Primitive polynomial remainder sequence (Knuth, TAOCP vol. 2, 4.6.1):
    each pseudo-remainder, lead(b)^k * a mod b, is divided by its content,
    which keeps the coefficients from growing exponentially.
    """
    a, b = _primitive(_strip(a)), _primitive(_strip(b))
    while b:
        r, lead = a, b[-1]
        while len(r) >= len(b):
            f, d = r[-1], len(r) - len(b)
            r = [lead * c for c in r]
            for i, y in enumerate(b):
                r[d + i] -= f * y
            r = _strip(r)
        a, b = b, _primitive(r)
    return a


def _c_root_count(a):
    """The number of distinct roots of a nonzero a: deg a - deg gcd(a, a') (Yun 1976)."""
    return len(a) - len(_c_gcd(a, [i * c for i, c in enumerate(a)][1:]))


def _pack(coeffs, shift, lo=0, hi=None):
    """sum c_i << shift*(i - lo) over lo <= i < hi (hi defaults to the end),
    the list at x = 2**shift, built by halves: the two halves of the range
    are packed on their own and joined by one shift and one add, so no
    coefficient is multiplied and no list is copied."""
    n = (len(coeffs) if hi is None else hi) - lo
    if n > 2:
        mid = lo + (n + 1) // 2
        high = _pack(coeffs, shift, mid, lo + n)
        return _pack(coeffs, shift, lo, mid) + (high << shift * (mid - lo))
    if n == 2:
        return coeffs[lo] + (coeffs[lo + 1] << shift)
    return coeffs[lo] if n else 0


def _packing_shift(height, length, order):
    """b such that 2**b is no root of a nonzero minor of order <= `order` whose
    entries have <= length coefficients of absolute value <= height.  Such a
    minor has coefficients <= B = order!*length^(order-1)*height^order, so by
    Cauchy's bound its roots are below 1 + B < 2**b."""
    return (factorial(order) * length ** (order - 1) * height ** order + 1).bit_length()


def _signed_digits(v, shift):
    """The integer coefficient list (lowest first, stripped) whose value at
    2**shift is v, when every coefficient is below 2**(shift - 1) in
    absolute value: each digit is the residue of v mod 2**shift nearest 0."""
    out = []
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    while v:
        r = v & mask
        v >>= shift
        if r >= half:
            r -= mask + 1
            v += 1
        out.append(r)
    return out


def _bareiss(rows):
    """(rank, pivot columns, echelon rows) over Q of an integer matrix, by
    fraction-free Bareiss elimination with row pivoting: each entry below the
    pivot rows is a minor of the input, so each division by the previous
    pivot is exact (and checked), and the rows stay integers.  The input is
    not touched; the rows returned are a copy in row echelon form."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    prev, r = 1, 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot, top = m[r][c], m[r]
        for row in m[r + 1:]:
            f, row[c] = row[c], 0
            for j in range(c + 1, ncols):
                row[j], rem = divmod(pivot * row[j] - f * top[j], prev)
                if rem:
                    raise InvalidParameterError("inexact division in Bareiss elimination")
        pivots.append(c)
        prev = pivot
        r += 1
    return r, pivots, m
