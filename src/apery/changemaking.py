"""Change-making machinery behind the closed-form evaluators.

Covers the optimal and greedy representation counts for a coin system,
Pearson's test of greedy optimality (orderliness), and greedy digit
presentations over the base-b repunit sequence (1, b+1, b^2+b+1, ...)
together with their colexicographic order and weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .core import check_cap, check_int
from .errors import InvalidParamsError


@dataclass(frozen=True)
class CoinSystem:
    """Strictly increasing denominations starting with the unit coin.

    Input is canonicalized (sorted, deduplicated) and must hold ints only;
    every amount is then representable because 1 is required to be present.
    """

    denominations: tuple[int, ...]

    def __init__(self, denominations: Iterable[int]):
        denoms = tuple(sorted({check_int(c, "coin") for c in denominations}))
        if not denoms or denoms[0] != 1:
            raise InvalidParamsError("coin system must contain the unit coin 1")
        object.__setattr__(self, "denominations", denoms)

    def __iter__(self):
        return iter(self.denominations)

    def __len__(self) -> int:
        return len(self.denominations)


def _as_coins(coins) -> CoinSystem:
    return coins if isinstance(coins, CoinSystem) else CoinSystem(coins)


def repunit_value(b: int, n: int) -> int:
    """(b^n - 1)/(b - 1): the base-b number written as n ones."""
    return (b**n - 1) // (b - 1)


def _repunits(b: int, k: int, below: int | None = None) -> list[int]:
    """The repunits R_1..R_k by R <- b*R + 1, stopping before the first one
    at or above below when it is given."""
    coins, r = [], 1
    while len(coins) < k and (below is None or r < below):
        coins.append(r)
        r = b * r + 1
    return coins


def repunit_coins(b: int, k: int) -> CoinSystem:
    """The sequence (1, (b^2-1)/(b-1), ..., (b^k-1)/(b-1)) as a coin system."""
    if b < 2:
        raise InvalidParamsError(f"base must be >= 2, got {b}")
    if k < 1:
        raise InvalidParamsError(f"length must be >= 1, got {k}")
    return CoinSystem(_repunits(b, k))


def _check_amount(M: int) -> None:
    if M < 0:
        raise InvalidParamsError(f"amount must be >= 0, got {M}")


def opt_count(coins, M: int) -> int:
    """Minimum number of coins summing to M, by bottom-up dynamic programming.

    The table has M+1 cells; more cells than the residue cap
    (SEMIGROUP_ORACLE_CAP, default 10**7) raise OracleInfeasibleError
    rather than exhausting memory.
    """
    coins = _as_coins(coins)
    _check_amount(M)
    check_cap(M + 1, "DP cells")
    return _opt_counts_upto(coins.denominations, M)[M]


def _opt_counts_upto(denoms: Sequence[int], limit: int) -> list[int]:
    # min-coin counts for every amount 0..limit; denoms ascend from the unit
    # coin, whose counts seed the table
    dp = list(range(limit + 1))
    for c in denoms[1:]:
        if c > limit:
            break
        for x in range(c, limit + 1):
            v = dp[x - c] + 1
            if v < dp[x]:
                dp[x] = v
    return dp


def greedy_count(coins, M: int) -> int:
    """Number of coins the largest-first greedy strategy uses for M."""
    coins = _as_coins(coins)
    _check_amount(M)
    return _greedy_prefix(coins.denominations[:0:-1], M)


def _greedy_prefix(above: Sequence[int], M: int) -> int:
    """Greedy coin count for M given the coins above the unit coin, largest
    first; the unit coin takes the remainder.

    Unvalidated, for callers that checked their input.  A caller that counts
    many amounts over one coin system reverses its coins once and passes the
    same sequence every time.
    """
    n = 0
    for c in above:
        q, M = divmod(M, c)
        n += q
    return n + M


class Orderliness(NamedTuple):
    orderly: bool
    counterexample: int | None


def is_orderly(coins) -> Orderliness:
    """Decide whether greedy is optimal for every amount (Pearson's test).

    With the coins descending, c_1 > ... > c_n = 1, the smallest amount at
    which greedy is not optimal, if there is one, has an optimal
    representation that copies the greedy digits of c_(i-1) - 1 on
    c_i..c_(j-1), takes one more c_j than they do and no smaller coin, for
    some 2 <= i <= j <= n (Pearson, Oper. Res. Lett. 33, 2005).  So
    comparing greedy with those O(n^2) candidates decides orderliness, and
    on failure the smallest failing candidate is the smallest
    counterexample.
    """
    desc = _as_coins(coins).denominations[::-1]
    above = desc[:-1]  # all but the unit coin, for _greedy_prefix
    found = None
    for i in range(1, len(desc)):
        # greedy digits of c_(i-1) - 1, largest coin first
        rest, digits = desc[i - 1] - 1, []
        for c in desc:
            q, rest = divmod(rest, c)
            digits.append(q)
        value = count = 0  # of the copied digits on c_i..c_(j-1)
        for j in range(i, len(desc)):
            w = value + (digits[j] + 1) * desc[j]
            if _greedy_prefix(above, w) > count + digits[j] + 1 \
                    and (found is None or w < found):
                found = w
            value += digits[j] * desc[j]
            count += digits[j]
    return Orderliness(found is None, found)


@dataclass(frozen=True)
class GreedyPresentation:
    """Digit vector of the greedy representation of an amount over repunit coins.

    Digits are little-endian: digits[i-1] multiplies (b^i - 1)/(b - 1).  The
    top digit is unbounded; every lower digit is at most b, and a digit equal
    to b above the lowest position forces all lower digits to zero.
    Constructing a vector that violates these constraints raises.
    """

    b: int
    k: int
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(x) for x in self.digits))
        b, k, digits = self.b, self.k, self.digits
        if b < 2 or k < 1:
            raise InvalidParamsError(f"need base >= 2 and length >= 1, got b={b} k={k}")
        if len(digits) != k:
            raise InvalidParamsError(f"expected {k} digits, got {len(digits)}")
        if any(x < 0 for x in digits):
            raise InvalidParamsError("digits must be non-negative")
        if any(x > b for x in digits[:-1]):
            raise InvalidParamsError(f"non-top digits must be <= {b}: {digits}")
        for i in range(1, k - 1):  # positions 2..k-1, 1-based
            if digits[i] == b and any(digits[:i]):
                raise InvalidParamsError(
                    f"digit b at position {i + 1} forces lower digits to zero: {digits}")
        m = self.value()
        if digits[-1] != (b - 1) * m // (b**k - 1):
            raise InvalidParamsError(
                f"top digit {digits[-1]} is not the greedy quotient for amount {m}")

    def value(self) -> int:
        """The represented amount."""
        return sum(x * repunit_value(self.b, i)
                   for i, x in enumerate(self.digits, start=1) if x)


def greedy_presentation(b: int, k: int, M: int) -> GreedyPresentation:
    """Greedy digits of M over (1, (b^2-1)/(b-1), ..., (b^k-1)/(b-1)).

    Largest denomination first, from the highest one at most M; the result
    is also an optimal representation because the repunit sequence is
    orderly.  repunit_value, not the closed forms' _repunits, keeps
    digit_sum an independent check of the closed F.
    """
    if b < 2:
        raise InvalidParamsError(f"base must be >= 2, got {b}")
    if k < 1:
        raise InvalidParamsError(f"length must be >= 1, got {k}")
    _check_amount(M)
    top = 1
    while top < k and repunit_value(b, top + 1) <= M:
        top += 1
    digits = [0] * k
    for i in range(top, 0, -1):
        digits[i - 1], M = divmod(M, repunit_value(b, i))
    return GreedyPresentation(b, k, tuple(digits))


def digit_sum(b: int, k: int, M: int) -> int:
    """Coin count of the greedy presentation (equals the optimal count)."""
    return sum(greedy_presentation(b, k, M).digits)


def weight(presentation: GreedyPresentation) -> int:
    """Weight of a presentation: sum of b^i * digit_i over positions i."""
    return sum(x * presentation.b**i
               for i, x in enumerate(presentation.digits, start=1))


def colex_compare(x: Sequence[int], y: Sequence[int]) -> int:
    """Colexicographic comparison of equal-length digit vectors.

    Returns -1, 0 or 1; the highest differing position decides.
    """
    if len(x) != len(y):
        raise InvalidParamsError(
            f"digit vectors differ in length: {len(x)} vs {len(y)}")
    for a, b in zip(reversed(x), reversed(y)):
        if a != b:
            return -1 if a < b else 1
    return 0
