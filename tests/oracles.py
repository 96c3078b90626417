"""Reference algorithms that the tests check the package against.

They are written for plainness, not speed, and share no code with the
package's own routines.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form over Q; returns (rank, pivot columns, rows).

    Each entry is made a Fraction once on entry (with int entries `/` would
    give floats), so the rows returned hold Fractions.
    """
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return r, pivots, m
