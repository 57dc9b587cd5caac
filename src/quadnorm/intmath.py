"""Exact integer arithmetic helpers shared across the package.

Everything here is plain ``int`` arithmetic: no floats are used anywhere,
so results are bit-exact at any size.  The generic group routines at the
end (powering, element order, closure) serve every group in the package.
"""

from __future__ import annotations

from math import gcd, isqrt

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
    return [i for i in range(n + 1) if sieve[i]]


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


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n (n > 0)."""
    if n <= 0:
        raise ValueError("p_part expects n > 0")
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        v += 1
        n //= 2
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def sqrt_mod_prime(a: int, q: int) -> int:
    """Smallest square root of a modulo an odd prime q (linear scan).

    Raises ValueError when a is a non-residue.  Desk scale only: q here is
    a conductor or class prime, never large.
    """
    a %= q
    for r in range(q):
        if r * r % q == a:
            return r
    raise ValueError(f"{a} is not a square modulo {q}")


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


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


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


def element_order(x, mul, one, bound: int | None = None) -> int:
    """Least k >= 1 with x**k == one, by repeated multiplication.

    Raises ArithmeticError when the order would exceed ``bound``.
    """
    k, acc = 1, x
    while acc != one:
        if bound is not None and k >= bound:
            raise ArithmeticError(f"element order exceeds {bound}")
        acc = mul(acc, x)
        k += 1
    return k


def closure(gens, mul, one) -> frozenset:
    """All products of the generators, the identity included.

    In a finite group this is the subgroup the generators generate: the
    inverse of g is a positive power of g, so right multiplication by the
    generators alone reaches every element.
    """
    gens = tuple(gens)
    out = {one}
    frontier = [one]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)
