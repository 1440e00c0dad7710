"""Trial-division prime helpers for the small integers met at desk scale
(element orders and group orders)."""

from __future__ import annotations


def smallest_prime_factor(n: int) -> int:
    """Least prime dividing n, for n >= 2."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = smallest_prime_factor(n)
    while n % p == 0:
        n //= p
    return n == 1


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    while n > 1:
        p = smallest_prime_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out
