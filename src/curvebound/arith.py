"""Integer factorization by trial division, and the prime and prime-power tests."""

from __future__ import annotations

from functools import lru_cache

# Miller-Rabin to the 13 prime bases 2..41 is exact below this bound (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


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
    """Deterministic Miller-Rabin below ``_MR_BOUND``, trial division above it."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        return factorize(n) == ((n, 1),)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
