"""Exact integer arithmetic helpers shared across the package.

Everything here is plain ``int`` arithmetic: no floats are used anywhere,
so results are bit-exact at any size.  The generic group routines at the
end (powering, the cycle of powers that gives an element's order, p-power
order, closure) serve every group in the package; the multiplication-table
groups of ``transfer`` keep each element's ``cycle`` and read their powers
from it.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond 64-bit inputs)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(compress(range(n + 1), sieve))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, adequate at desk scale."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return all(e == 1 for e in factorize(n).values())


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n (n > 0, p > 1)."""
    if n <= 0:
        raise ValueError("p_part expects n > 0")
    if p < 2:
        raise ValueError("p_part expects p > 1")
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def kronecker(a: int, q: int) -> int:
    """The symbol (a | q) at a prime q, which the caller must guarantee.

    For odd q it is Euler's criterion, a^((q-1)/2) mod q read as -1, 0 or
    1; at q = 2 it is 0 for even a, 1 for a = +-1 and -1 for a = +-3 mod 8.
    """
    if q == 2:
        return 0 if a % 2 == 0 else 1 if a % 8 in (1, 7) else -1
    t = pow(a, (q - 1) // 2, q)
    return -1 if t == q - 1 else t


def sqrt_mod_prime(a: int, q: int) -> int:
    """Smallest square root of a modulo an odd prime q: a^((q+1)/4) when
    q = 3 (mod 4), else Tonelli-Shanks (Cohen GTM 138, Alg. 1.5.1).

    Raises ValueError at q = 2 and for a non-residue a, which fails the
    root's check or, in the loop, has a^t of order 2^e.
    """
    if q == 2:
        raise ValueError("sqrt_mod_prime expects an odd prime")
    a %= q
    if a == 0:
        return 0
    if q % 4 == 3:
        r = pow(a, (q + 1) // 4, q)
        if r * r % q != a:
            raise ValueError(f"{a} is not a square modulo {q}")
        return min(r, q - r)
    e, t = 0, q - 1  # q - 1 = 2^e * t with t odd
    while t % 2 == 0:
        e, t = e + 1, t // 2
    n = 2
    while kronecker(n, q) != -1:
        n += 1
    z = pow(n, t, q)  # generates the 2-Sylow subgroup of (Z/q)*
    r, b = pow(a, (t + 1) // 2, q), pow(a, t, q)
    while b != 1:
        # least m with b^(2^m) = 1; m < e unless a is a non-residue
        m, b2 = 0, b
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % q
        if m == e:
            raise ValueError(f"{a} is not a square modulo {q}")
        y = pow(z, 1 << (e - m - 1), q)
        z = y * y % q
        r, b, e = r * y % q, b * z % q, m
    return min(r, q - r)


def crt(residues, moduli) -> int:
    """The least x >= 0 with x = a_i mod n_i, for pairwise coprime n_i."""
    x, m = 0, 1
    for a, n in zip(residues, moduli):
        x += m * ((a - x) * pow(m, -1, n) % n)
        m *= n
    return x


def floor_quadsurd(P: int, Q: int, D: int) -> int:
    """floor((P + sqrt(D)) / Q) for non-square D > 0 and Q != 0, exactly."""
    s = isqrt(D)
    if Q > 0:
        return (P + s) // Q
    # sqrt(D) irrational, so the quotient is never an integer
    return -((P + s) // (-Q)) - 1


def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    m = [row[:] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invariant_factors(rows: list[list[int]]) -> list[int]:
    """The invariant factors > 1, ascending, of a square nonsingular integer
    matrix: the diagonal d1 | d2 | ... of its Smith normal form (Cohen, GTM
    138, 2.4.3).

    Each pass moves an entry of least absolute value to the pivot and
    clears its row and column by division with remainder; once they are
    clear, a row holding an entry that the pivot does not divide is added
    to the pivot row, and the pass repeats with a smaller pivot.
    """
    a = [row[:] for row in rows]
    n = len(a)
    out = []
    for t in range(n):
        while True:
            least = [(abs(x), i, j) for i in range(t, n) for j, x in enumerate(a[i][t:], t) if x]
            if not least:
                raise ValueError("invariant_factors expects a nonsingular matrix")
            _, i, j = min(least)
            a[t], a[i] = a[i], a[t]
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, n):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    for row in a[t:]:
                        row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, n)) or any(a[t][t + 1 :]):
                continue
            rest = [i for i in range(t + 1, n) if any(x % p for x in a[i][t + 1 :])]
            if not rest:
                break
            a[t] = [x + y for x, y in zip(a[t], a[rest[0]])]
        out.append(abs(a[t][t]))
    return [x for x in out if x > 1]


def poly_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of two integer polynomials (ascending coefficients)."""
    while f and f[-1] == 0:
        f = f[:-1]
    while g and g[-1] == 0:
        g = g[:-1]
    if not f or not g:
        return 0
    n, m = len(f) - 1, len(g) - 1
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    rows = []
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return bareiss_det(rows)


def poly_discriminant(f: list[int]) -> int:
    """Discriminant of an integer polynomial given by ascending coefficients."""
    n = len(f) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    fp = [i * f[i] for i in range(1, n + 1)]
    res = poly_resultant(f, fp)
    lead = f[-1]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, r = divmod(sign * res, lead)
    if r:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return q


# --- generic group routines -------------------------------------------------
# Each takes the group law as a callback ``mul`` and its identity ``one``, so
# class groups, finite tables, quadratic rings and residue fields share them.


def power(x, k: int, mul, one):
    """x**k for k >= 0 by binary powering (square and multiply)."""
    if k < 0:
        raise ValueError("power expects k >= 0")
    acc = one
    while k:
        if k & 1:
            acc = mul(acc, x)
        x = mul(x, x)
        k >>= 1
    return acc


def cycle(x, mul, one, bound: int | None = None) -> list:
    """The powers one, x, x**2, ..., x**(m-1) of x, m its order.

    Raises ArithmeticError when the order would exceed ``bound``.
    """
    powers, acc = [one], x
    while acc != one:
        if bound is not None and len(powers) >= bound:
            raise ArithmeticError(f"element order exceeds {bound}")
        powers.append(acc)
        acc = mul(acc, x)
    return powers


def p_power_order(x, p: int, n: int, pth, one) -> int:
    """Least p^k (k <= n) with x^(p^k) == one, by at most n calls to the
    p-th-power map ``pth`` (Cohen, GTM 138, Alg. 1.4.3).

    Raises ArithmeticError when x^(p^n) != one.
    """
    order, bound = 1, p**n
    while x != one:
        if order == bound:
            raise ArithmeticError(f"order does not divide {bound}")
        x, order = pth(x), order * p
    return order


def closure(gens, mul, one, base=None, floor=None) -> frozenset | None:
    """All products of the generators, the identity included.

    In a finite group this is the subgroup the generators generate: the
    inverse of g is a positive power of g, so right multiplication by the
    generators alone reaches every element.

    ``base``, when given, must be the closure of every generator but the
    last.  A product leaves ``base`` only through a right factor equal to
    the last generator, so the walk starts from base * last and never
    revisits the elements of ``base``.

    ``floor``, if given, makes the result None as soon as a product outside
    ``base`` ({one} without a base) is below it.
    """
    gens = tuple(gens)
    if base is None:
        out = {one}
        frontier = [one]
    else:
        out, frontier, last = set(base), [], gens[-1]
        for b in base:
            y = mul(b, last)
            if y not in out:
                if floor is not None and y < floor:
                    return None
                out.add(y)
                frontier.append(y)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in out:
                if floor is not None and y < floor:
                    return None
                out.add(y)
                frontier.append(y)
    return frozenset(out)
