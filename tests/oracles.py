"""Independent oracles for the test suite.

Everything here recomputes results from first principles and deliberately
avoids the package's own arithmetic: ring products come from structure
constants on the additive basis (1, z, z^2, ..., w), and ideal membership
uses a self-contained integer row reduction over truncated coordinates.
Elements are handled as raw (poly, wcoef) pairs of plain integers.  The
Neumann-Siebenmann invariant of Sigma(2, 3, m) comes from its plumbing,
built from (2, 3, m) alone.  Only random_combination, which builds test data
and is no oracle, imports the package.
"""

from __future__ import annotations

from fractions import Fraction


def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class HnfOracle:
    """Minimal integer row-echelon form; add rows, then test membership.

    Entries are kept reduced against the pivots after every change, else
    repeated xgcd merges blow the coefficients up exponentially.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    def _settle(self, j):
        # reduce the row at pivot j against pivots to its right, and all
        # other rows against the row at j
        row = self.rows[j]
        for jj in range(j + 1, self.ncols):
            other = self.rows.get(jj)
            if other is not None and row[jj]:
                q = row[jj] // other[jj]
                if q:
                    self.rows[j] = row = [ri - q * oi for ri, oi in zip(row, other)]
        for jj, other in self.rows.items():
            if jj < j and other[j]:
                q = other[j] // row[j]
                if q:  # row is 0 left of j
                    self.rows[jj] = other[:j] + [oi - q * ri for oi, ri in zip(other[j:], row[j:])]

    def add(self, vec):
        vec = list(vec)
        for j in range(self.ncols):
            if not vec[j]:
                continue
            row = self.rows.get(j)
            if row is None:
                self.rows[j] = [-c for c in vec] if vec[j] < 0 else vec
                self._settle(j)
                return
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                vec = [vi - q * ri for vi, ri in zip(vec, row)]
            else:
                x, y, g = _xgcd(a, b)
                self.rows[j] = [x * ri + y * vi for ri, vi in zip(row, vec)]
                vec = [(a // g) * vi - (b // g) * ri for ri, vi in zip(row, vec)]
                self._settle(j)

    def widen(self, ncols):
        """The same lattice over ncols coordinates: zero columns go in before
        the last one, so (1, ..., z^(k-1), w) becomes (1, ..., z^(ncols-2), w)."""
        pad, last = [0] * (ncols - self.ncols), self.ncols - 1
        self.rows = {(ncols - 1 if j == last else j): row[:-1] + pad + row[-1:] for j, row in self.rows.items()}
        self.ncols = ncols

    def contains(self, vec):
        vec = list(vec)
        for j in range(self.ncols):
            if not vec[j]:
                continue
            row = self.rows.get(j)
            if row is None or vec[j] % row[j]:
                return False
            q = vec[j] // row[j]
            vec = [vi - q * ri for vi, ri in zip(vec, row)]
        return True


def poly_eval2(poly):
    acc = 0
    for c in reversed(poly):
        acc = acc * 2 + c
    return acc


def raw_wmult(pair):
    poly, lam = pair
    return 2 * lam + poly_eval2(poly)


def elem_vector(pair, zcols):
    """Coordinates of lam*w + P(z) over (1, z, ..., z^(zcols-1), w)."""
    poly, lam = pair
    if len(poly) > zcols:
        raise ValueError("element does not fit in the truncation")
    return list(poly) + [0] * (zcols - len(poly)) + [lam]


def shift_raw(pair, j):
    """z^j * (P, lam) = (z^j P, 2^j lam), straight from the relations."""
    poly, lam = pair
    shifted = (0,) * j + tuple(poly) if poly else ()
    return shifted, lam * 2 ** j


def ideal_member_oracle(gens, x):
    """Truncated-lattice ideal membership: gens and x are raw pairs.

    Spans {z^j g : deg <= window} and {w g} over the coordinates
    (1, z, ..., z^window, w), starting from slack B = max generator degree
    + 2.  A positive verdict at any truncation is a genuine membership
    certificate; a negative one may just mean the witness needs higher
    shifts (low-degree members of an ideal can require cancelling
    combinations of high z-shifts), so the window is enlarged a few times
    before reporting False.  Each window's lattice holds the one before it,
    so one lattice is widened and takes only the new shifts.
    """
    n = max(len(x[0]) - 1, 0)
    b = max((len(g[0]) - 1 for g in gens if g[0]), default=0) + 2
    base = n + b + 1
    lat, done = HnfOracle(1), 0
    for zcols in (base, base + 6, base + 16):
        lat.widen(zcols + 1)
        for g in gens:
            deg = max(len(g[0]) - 1, 0)
            for j in range(max(done - deg, 0), zcols - deg):
                lat.add(elem_vector(shift_raw(g, j), zcols))
            if not done:
                lat.add([0] * zcols + [raw_wmult(g)])
        if lat.contains(elem_vector(x, zcols)):
            return True
        done = zcols
    return False


def wmult_subgroup_oracle(gens):
    """gcd generating {c : c*w in w*I}, computed from raw generator data."""
    g = 0
    for pair in gens:
        a, b = g, abs(raw_wmult(pair))
        while b:
            a, b = b, a % b
        g = a
    return g


def _poly_rem_q(a, b):
    """Remainder of a by b over Q; coefficient lists, low degree first, stripped."""
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def zw_exponent_oracle(gens, k_max):
    """Least k <= k_max with some lam*z^k + mu*w (lam != 0) in the ideal, or None.

    The ideal contains such an element iff its polynomial parts contain a
    nonzero multiple of z^k, which happens iff the monic gcd over Q of the
    generators' polynomial parts is z^j with j <= k; computed by Euclid.
    """
    g = []
    for poly, _ in gens:
        a, b = g, [Fraction(c) for c in poly]
        while b:
            a, b = b, _poly_rem_q(a, b)
        g = a
    if not g:
        return None
    j = len(g) - 1
    if [c / g[-1] for c in g] != [0] * j + [1]:
        return None
    return j if j <= k_max else None


# -- multiplication via structure constants --------------------------------------


def mul_matrix_oracle(xpair, ypair):
    """Product of two elements through the matrix of multiplication by x.

    Basis (1, z, ..., z^N, w) with N = deg x + deg y; columns are the images
    of basis vectors built termwise from z^i * z^j = z^(i+j), z^i * w = 2^i w
    and w * w = 2w.
    """
    xpoly, xlam = xpair
    ypoly, ylam = ypair
    n = max(len(xpoly) - 1, 0) + max(len(ypoly) - 1, 0)
    size = n + 2  # z^0..z^N then w
    cols = []
    for j in range(n + 1):  # column of x * z^j
        col = [0] * size
        for i, a in enumerate(xpoly):
            if a and i + j <= n:
                col[i + j] += a
        col[size - 1] += xlam * 2 ** j
        cols.append(col)
    wcol = [0] * size  # column of x * w
    for i, a in enumerate(xpoly):
        wcol[size - 1] += a * 2 ** i
    wcol[size - 1] += 2 * xlam
    cols.append(wcol)

    yvec = elem_vector(ypair, n + 1)
    out = [0] * size
    for col, coeff in zip(cols, yvec):
        if coeff:
            for idx, entry in enumerate(col):
                out[idx] += coeff * entry
    poly = out[:-1]
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly), out[-1]


# -- the Neumann-Siebenmann invariant of Sigma(2, 3, m) -----------------------------


def brieskorn_plumbing(m):
    """Weights and edges of the negative-definite star plumbing that
    Sigma(2, 3, m), gcd(m, 6) = 1, bounds.  Vertex 0 is the centre.  The leg
    of the fibre of multiplicity a has weights minus the continued fraction
    a/omega = k_1 - 1/(k_2 - ...), every k_j >= 2, for the Seifert invariant
    omega = -(6m/a)^(-1) mod a; the central weight e_0 makes the Euler number
    e = e_0 + sum omega/a satisfy e * 6m = -1.  W. Neumann, "A calculus for
    plumbing applied to the topology of complex surface singularities and
    degenerating complex curves", Trans. AMS 268 (1981)."""
    order = 6 * m
    weights, edges, lift = [0], [], 0
    for a in (2, 3, m):
        omega = -pow(order // a, -1, a) % a
        lift += omega * (order // a)
        last, num, den = 0, a, omega
        while den:
            k = -(-num // den)
            weights.append(-k)
            edges.append((last, len(weights) - 1))
            last = len(weights) - 1
            num, den = den, k * den - num
    weights[0], rest = divmod(-1 - lift, order)
    if rest:
        raise ArithmeticError(f"no integral central weight for m = {m}")
    return weights, edges


def _gf2_solve(rows, n):
    """x over GF(2) with row_i . x = bit n of row_i, the rows held as int
    bitsets of n columns and the right-hand side; the matrix must be invertible."""
    rows = list(rows)
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i] >> col & 1)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(n):
            if i != col and rows[i] >> col & 1:
                rows[i] ^= rows[col]
    return [row >> n & 1 for row in rows]


def mu_bar(m):
    """The Neumann-Siebenmann invariant of +Sigma(2, 3, m), the boundary of the
    negative-definite plumbing: (sigma - w.w) / 8 for the Wu set w, the
    solution of Q w = diag Q mod 2, and sigma = -|V|.  W. Neumann, "An
    invariant of plumbed homology spheres", LNM 788 (1980)."""
    weights, edges = brieskorn_plumbing(m)
    n = len(weights)
    rows = [(weight & 1) << i | (weight & 1) << n for i, weight in enumerate(weights)]
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    wu = _gf2_solve(rows, n)
    square = sum(weight for weight, bit in zip(weights, wu) if bit)
    square += 2 * sum(wu[i] & wu[j] for i, j in edges)
    mu, rest = divmod(-n - square, 8)
    if rest:
        raise ArithmeticError(f"sigma - w.w = {-n - square} is not a multiple of 8 for m = {m}")
    return mu


# -- random data -------------------------------------------------------------------


def random_pair(rng, max_deg=6, cmax=9, wmax=9):
    deg = rng.randint(-1, max_deg)
    poly = tuple(rng.randint(-cmax, cmax) for _ in range(deg + 1))
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    return poly, rng.randint(-wmax, wmax)


def random_generator_set(rng, max_gens=3, max_deg=4, cmax=3):
    count = rng.randint(0, max_gens)
    return [random_pair(rng, max_deg, cmax, cmax) for _ in range(count)]


def random_combination(rng, gens):
    """A guaranteed member: sum of small ring multiples of the generators."""
    from pin2k.ring import RingElem

    total = RingElem()
    for g in gens:
        q = RingElem(rng.randint(-2, 2), tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3))))
        total = total + q * RingElem(g[1], g[0])
    return total
