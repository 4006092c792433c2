"""Exact replay of powers, in rational arithmetic (standard library only).

A float is a dyadic rational, so the samples, the quadrature rows and the
eigen-parameters of a rank-k model with real data are exact rationals, and
so is T^n x = sum_i lam_i^(n-1) <phi_i, x> f_i for n >= 1 and a rational
grid vector x. A diagonal's entries are Gaussian rationals, and so are
their powers; the sign of a product of real shift weights is the product
of their signs; a real dense matrix is an integer matrix over a power of
two, and so are its powers. Tests hold a verdict or a witness to these,
with no rounding.
"""

import math
from fractions import Fraction


def rational(z) -> Fraction:
    """A real number, or a complex one whose imaginary part is 0, as the
    exact rational it is."""
    z = complex(z)
    if z.imag != 0:
        raise ValueError(f"{z} is not real")
    return Fraction(z.real)


class RankKPowers:
    """The powers of sum_i f_i <phi_i, .> on a grid, from the
    eigen-parameters lam_i, the rows of the phi_i (one per functional) and
    the samples of the f_i (one row per node, one column per function)."""

    def __init__(self, eigen_parameters, rows, samples):
        self.lam = [rational(v) for v in eigen_parameters]
        self.rows = [[rational(v) for v in row] for row in rows]
        self.functions = [[rational(v) for v in column] for column in zip(*samples)]

    def powers(self, x, last: int):
        """T^n x for n = 1, ..., last, each a list of rationals."""
        x = [rational(v) for v in x]
        coefficients = [sum(r * v for r, v in zip(row, x)) for row in self.rows]
        for n in range(1, last + 1):
            y = [Fraction(0)] * len(x)
            for lam, c, f in zip(self.lam, coefficients, self.functions):
                scale = lam ** (n - 1) * c
                if scale:
                    y = [a + scale * b for a, b in zip(y, f)]
            yield y


def gaussian(z) -> tuple:
    """A complex number as the exact Gaussian rational (re, im) it is."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def nonnegative(z: tuple) -> bool:
    """A Gaussian rational (re, im) lies on the nonnegative reals."""
    re, im = z
    return im == 0 and re >= 0


def diagonal_powers(symbol, last: int):
    """s^n for each entry s of the symbol, for n = 1, ..., last, each a list
    of Gaussian rationals."""
    entries = powers = [gaussian(s) for s in symbol]
    yield powers
    for _ in range(last - 1):
        powers = [(a * c - b * d, a * d + b * c) for (a, b), (c, d) in zip(powers, entries)]
        yield powers


def shift_window_signs(weights, k: int) -> list:
    """The sign, -1, 0 or 1, of each product of k consecutive real weights,
    w_j ... w_{j+k-1} for j = 0, ..., len(weights) - k."""
    signs = [(w > 0) - (w < 0) for w in map(rational, weights)]
    return [math.prod(signs[j : j + k]) for j in range(len(signs) - k + 1)]


def dense_powers(matrix, last: int):
    """A^n for n = 1, ..., last of a real matrix (complex entries with a zero
    imaginary part are read as real), each a list of rows of rationals.
    Every entry is dyadic, so A = M / 2^e with M an integer matrix and 2^e
    the largest denominator, and A^n = M^n / 2^(e n) is formed in integers."""
    rows = [[rational(v) for v in row] for row in matrix]
    e = max(f.denominator for row in rows for f in row).bit_length() - 1
    M = [[int(f * 2**e) for f in row] for row in rows]
    columns = list(zip(*M))
    P = M
    for n in range(1, last + 1):
        yield [[Fraction(v, 2 ** (e * n)) for v in row] for row in P]
        P = [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in P]
