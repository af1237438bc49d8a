"""Integer factorization by trial division, and the prime and prime-power tests."""

from __future__ import annotations

from functools import lru_cache


def factorize(n: int):
    """((prime, exponent), ...) for n by trial division, primes ascending; () for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def factor_prime_power(q: int):
    """(d, k) with q = d^k and d prime; raises if q is not a prime power."""
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return factors[0]


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division: about sqrt(n) steps, so the caller bounds n."""
    return factorize(n) == ((n, 1),)
