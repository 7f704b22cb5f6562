"""Small prime helpers by trial division; inputs here stay desk-scale."""

from __future__ import annotations

from itertools import count
from typing import Iterator

from .errors import OrderCapExceeded

__all__ = ["is_prime", "iter_primes"]

# is_prime trial-divides up to sqrt(n), so 5e5 times at most below it
_PRIME_CAP = 10 ** 12


def is_prime(n: int) -> bool:
    if n > _PRIME_CAP:  # before any division
        raise OrderCapExceeded(f"primality test needs n at most "
                               f"{_PRIME_CAP}, got a {n.bit_length()}-bit n")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def iter_primes() -> Iterator[int]:
    return filter(is_prime, count(2))

