"""Change-making machinery behind the closed-form evaluators.

Covers the optimal and greedy representation counts for a coin system,
Pearson's test of greedy optimality (orderliness), and greedy digit
presentations over the base-b repunit sequence (1, b+1, b^2+b+1, ...)
together with their colexicographic order and weights.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import log

from .core import _Frozen, _shown, check_cap, check_int
from .errors import InvalidParamsError


class CoinSystem(_Frozen):
    """Strictly increasing denominations starting with the unit coin.

    Input is canonicalized (sorted, deduplicated) and must hold ints only;
    every amount is then representable because 1 is required to be present.
    """

    _fields = ("denominations",)

    def __init__(self, denominations: Iterable[int]):
        denoms = tuple(sorted({check_int(c, "coin", 1) for c in denominations}))
        if not denoms or denoms[0] != 1:
            raise InvalidParamsError("coin system must contain the unit coin 1")
        vars(self).update(denominations=denoms)

    def __iter__(self):
        return iter(self.denominations)

    def __len__(self) -> int:
        return len(self.denominations)


def _as_coins(coins) -> CoinSystem:
    return coins if isinstance(coins, CoinSystem) else CoinSystem(coins)


def repunit_value(b: int, n: int) -> int:
    """(b^n - 1)/(b - 1): the base-b number written as n ones."""
    return (b**n - 1) // (b - 1)


def _repunit_walk(b: int, k: int, below: int | None = None):
    """The repunits R_j, R_(j-1), ..., R_1 = 1, largest first, by R <- R // b.

    R_j is R_k, or, when below (at least 1) is given, the largest R_j below
    it with j <= k.  R_j < below exactly when b^j <= (b-1)*below, so one
    float log finds j and one power of b confirms it.  R_(i+1) = b*R_i + 1
    makes R_(i+1) // b = R_i, so the walk holds one repunit at a time and a
    caller that stops early computes no smaller one.
    """
    if below is None:
        r = repunit_value(b, k)
    else:
        m = (b - 1) * below
        j = int(log(m, b))
        if j > k:  # cheaper than min() at the small a of a verify sweep
            j = k
        p = b**j
        # the float log can miss j by one either way
        while p > m:
            p //= b
            j -= 1
        while j < k and p * b <= m:
            p *= b
            j += 1
        r = (p - 1) // (b - 1)
    while r:
        yield r
        r //= b


def repunit_coins(b: int, k: int) -> CoinSystem:
    """The sequence (1, (b^2-1)/(b-1), ..., (b^k-1)/(b-1)) as a coin system."""
    check_int(b, "base", 2)
    check_int(k, "length", 1)
    return CoinSystem(_repunit_walk(b, k))


def opt_count(coins, M: int) -> int:
    """Minimum number of coins summing to M, by bottom-up dynamic programming.

    The table has M+1 cells; more cells than the residue cap
    (SEMIGROUP_ORACLE_CAP, default 10**7) raise OracleInfeasibleError
    rather than exhausting memory.
    """
    coins = _as_coins(coins)
    check_int(M, "amount", 0)
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
    check_int(M, "amount", 0)
    return _greedy_prefix(coins.denominations[:0:-1], M)


def _greedy_prefix(above: Iterable[int], M: int) -> int:
    """Greedy coin count for M given the coins above the unit coin, largest
    first; the unit coin takes the remainder.  The unit coin may close the
    sequence too, as it does in _repunit_walk.

    Returns as soon as the remainder is 0, so a lazy sequence of coins is
    not read past that point.  Unvalidated, for callers that checked their
    input.  A caller that counts many amounts over one coin system reverses
    its coins once and passes the same sequence every time.
    """
    n = 0
    for c in above:
        q, M = divmod(M, c)
        n += q
        if not M:
            return n
    return n + M


def _repunit_greedy_sum(b: int, k: int, x: int) -> int:
    """Greedy coin count of x over the repunits R_1..R_k, unvalidated.

    Walks the repunits at most x, largest first, and stops at the first
    zero remainder.  For b = 2 it walks none: an x of more than k bits
    first takes x // R_k coins R_k, and the rest is the least s with
    popcount(x + s) <= s (closed_forms, step 7), found by bisection.
    Every probe s < 2^c changes only the low c bits of x and carries at
    most once into x >> c, whose popcount with and without that carry is
    read once, so the search costs O(L) for an L-bit x.
    """
    if b != 2:
        return _greedy_prefix(_repunit_walk(b, k, x + 1), x)
    n = 0
    if x.bit_length() > k:
        n, x = divmod(x, (1 << k) - 1)
    p = x.bit_count()
    lo, hi = 0, p + p.bit_length() + 1
    c = hi.bit_length()
    mask = (1 << c) - 1
    low = x & mask
    # popcount(x >> c), and the same after a carry into it:
    # (x | mask) + 1 = ((x >> c) + 1) << c
    ones = (p - low.bit_count(), ((x | mask) + 1).bit_count())
    while lo < hi:
        s = (lo + hi) // 2
        t = low + s
        if ones[t >> c] + (t & mask).bit_count() <= s:
            hi = s
        else:
            lo = s + 1
    return n + lo


# orderly: bool; counterexample: the least amount greedy fails, or None
Orderliness = namedtuple("Orderliness", "orderly counterexample")


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


class GreedyPresentation(_Frozen):
    """Digit vector of the greedy representation of an amount over repunit coins.

    Digits are little-endian: digits[i-1] multiplies R_i = (b^i - 1)/(b - 1).
    The top digit is unbounded; every lower digit is at most b, and a digit
    equal to b above the lowest position forces all lower digits to zero.
    Constructing a vector that violates these constraints raises.

    These rules already make the top digit the greedy quotient
    value() // R_k, so no rule checks it.  By induction on j, the digits
    below position j stand for at most R_j - 1: a digit x_j <= b - 1 adds
    at most (b-1)*R_j, giving at most b*R_j - 1 = R_(j+1) - 2, and a digit
    b adds b*R_j = R_(j+1) - 1 with nothing below it (at j = 1 there is
    nothing below anyway).
    """

    _fields = ("b", "k", "digits")

    def __init__(self, b: int, k: int, digits: Sequence[int]):
        check_int(b, "base", 2)
        check_int(k, "length", 1)
        digits = tuple(digits)
        # each rule is one pass in C over the digits, so a long run of zero
        # digits costs no Python step per digit; a digit that is not an
        # exact int goes through check_int, which names it
        if not set(map(type, digits)) <= {int}:
            digits = tuple(check_int(x, "digit", 0) for x in digits)
        vars(self).update(b=b, k=k, digits=digits)
        if len(digits) != k:
            raise InvalidParamsError(
                f"expected {_shown(k)} digits, got {len(digits)}")
        check_int(min(digits), "digit", 0)
        # a refusal names the first bad digit, whose value index() finds there
        if max(digits[:-1], default=0) > b:
            above = next(filter(b.__lt__, digits))
            raise InvalidParamsError(
                f"non-top digits must be <= {_shown(b)}: position "
                f"{digits.index(above) + 1} holds {_shown(above)}")
        # a digit b at positions 2..k-1 (1-based) forces all lower digits to
        # zero; the lowest such b is nonzero, so any higher one is refused
        try:
            i = digits.index(b, 1, k - 1)
            if not any(digits[:i]):
                i = digits.index(b, i + 1, k - 1)
        except ValueError:
            return
        low = next(filter(None, digits[:i]))
        raise InvalidParamsError(
            f"digit b at position {i + 1} forces lower digits to zero: "
            f"position {digits.index(low) + 1} holds {_shown(low)}")

    def value(self) -> int:
        """The represented amount."""
        return sum(x * repunit_value(self.b, i)
                   for i, x in enumerate(self.digits, start=1) if x)


def _greedy_digits(b: int, k: int, M: int) -> list[int]:
    # the greedy digits of M, little-endian, up to the highest repunit R_top
    # at most M (top >= 1), with no zero digit above it; R_i <= M exactly
    # when b^i <= (b-1)*M + 1, so the float log, which misses by at most
    # one, puts top at most two too high.  Its own loop, not _repunit_walk,
    # so that digit_sum stays an independent check of the closed F.
    check_int(b, "base", 2)
    check_int(k, "length", 1)
    check_int(M, "amount", 0)
    top = max(1, min(k, int(log((b - 1) * M + 1, b)) + 1))
    r = repunit_value(b, top)
    while top > 1 and r > M:
        r, top = (r - 1) // b, top - 1
    digits = [0] * top
    for i in range(top - 1, -1, -1):
        digits[i], M = divmod(M, r)
        if not M:
            break
        r = (r - 1) // b
    return digits


def greedy_presentation(b: int, k: int, M: int) -> GreedyPresentation:
    """Greedy digits of M over (1, (b^2-1)/(b-1), ..., (b^k-1)/(b-1)).

    Largest denomination first, from the highest one at most M; the result
    is also an optimal representation because the repunit sequence is
    orderly.  repunit_value, not the closed forms' _repunit_walk, keeps
    digit_sum an independent check of the closed F.
    """
    digits = _greedy_digits(b, k, M)
    return GreedyPresentation(b, k, (*digits, *[0] * (k - len(digits))))


def digit_sum(b: int, k: int, M: int) -> int:
    """Coin count of the greedy presentation (equals the optimal count).

    Sums the digits up to the highest repunit at most M, with no vector of
    k digits to build, so its cost does not grow with k, and divides no
    further than the first zero remainder.
    """
    return sum(_greedy_digits(b, k, M))


def weight(presentation: GreedyPresentation) -> int:
    """Weight of a presentation: sum of b^i * digit_i over positions i."""
    return sum(x * presentation.b**i
               for i, x in enumerate(presentation.digits, start=1) if x)


def colex_compare(x: Sequence[int], y: Sequence[int]) -> int:
    """Colexicographic comparison of equal-length digit vectors.

    Returns -1, 0 or 1; the highest differing position decides.
    """
    if len(x) != len(y):
        raise InvalidParamsError(
            f"digit vectors differ in length: {len(x)} vs {len(y)}")
    rx, ry = tuple(reversed(x)), tuple(reversed(y))  # colex: lex, reversed
    return (rx > ry) - (rx < ry)
