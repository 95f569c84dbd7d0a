"""Named-family Frobenius numbers and genera as expressions in the family
parameters.

Used only by the test suite and CI.  Each expression is derived by hand,
in its docstring, from the greedy digits over the base-2 repunits
R_i = 2^i - 1, and computes a from the family's definition, not from
apery.families.  It shares no code with the closed engine: the digit sum
s of a small number is digit_sum, changemaking's own reference loop.

With b = 2, F = ((b-1)*a - b + d + s(a-1))*a - d reads
F = (a - 2 + d + s(a-1))*a - d.  Both F derivations use one fact: when
the greedy holds the remainder y and R_i <= y < 2*R_i = 2^(i+1) - 2, it
takes one coin R_i and leaves y - 2^i + 1.

The genus is the sum of s(r) over the class indices r < a plus the
Selmer half (a-1)*((b-1)*a + d - 1)/2, which reads (a-1)*a/2 at b = 2,
d = 1.  Both genus derivations use B_j, the sum of s(r) over r < R_j
with R_j among the coins:

    B_j = j*2^(j-1) - 1.

Split [0, R_j) into [0, R_(j-1)), R_(j-1) + [0, R_(j-1)) and the point
2*R_(j-1) = R_j - 1.  On the second part the greedy takes one coin
R_(j-1) and goes on with the rest, and at the point it takes two and
leaves 0.  So B_j = 2*B_(j-1) + R_(j-1) + 2 with B_1 = 0, which the
closed form solves.
"""
from apery import digit_sum


def gu_ze_tang_frobenius(n: int, m: int) -> int:
    """F of gu_ze_tang(n, m) for 2 <= m <= 2^n: (a - 1 + m + s(m-2))*a - 1.

    a = (2^m - 1)*2^n - 1, d = 1, k = n + m - 1, and
    a - 1 = 2^(n+m) - 2^n - 2: 1 bits at n+1..n+m-1 and at 1..n-1.  It is
    below R_(n+m), so the greedy starts at R_(n+m-1) = R_k.  Before the
    coin of bit i (n+1 <= i <= n+m-1) it has taken j = n+m-1-i <= m - 2
    coins, one per higher bit, and holds 2^i + (2^i - 2^n - 2) + j, which
    lies in [R_i, 2*R_i) because j < 2^n.  So bits n+1..n+m-1 take one coin
    each, m - 1 coins, and leave 2^n - 2 + m - 1 = R_n + (m - 2).  As
    m - 2 < R_n, that is one more coin R_n and a remainder of m - 2.  So
    s(a-1) = m + s(m-2).
    """
    a = (2**m - 1) * 2**n - 1
    s = m + digit_sum(2, n + m - 1, m - 2)
    return (a - 1 + s) * a - 1


def song_gt_frobenius(n: int, m: int) -> int:
    """F of song_gt(n, m) for m > n >= 3: (a - 2 + d + n + 1 + s(n+1))*a - d.

    a = (2^m + 1)*2^n - (2^m - 1), d = 2^m - 1, k = n + m - 1, and
    a - 1 = 2^(m+n) - 2^m + 2^n: 1 bits at m..m+n-1 and at n.  a - 1 has
    its top bit at k, and a - 1 - R_k = 2^(m+n-1) - 2^m + 2^n + 1 is below
    R_k because 2^n + 2 < 2^m, so R_k is one coin.  That remainder has 1
    bits at m..m+n-2, at n and at 0.  Before the coin of bit i
    (m <= i <= m+n-2) the greedy has taken j <= n - 2 coins since R_k and
    holds 2^i + (2^i - 2^m) + 2^n + 1 + j, in [R_i, 2*R_i) because
    2^n + n + 1 < 2^m; so these bits take n - 1 coins and leave
    2^n + 1 + (n - 1) = R_n + (n + 1).  That is below R_(n+1), and n + 1
    is below R_n as n >= 3, so R_n is one coin and n + 1 is left.  So
    s(a-1) = 1 + (n - 1) + 1 + s(n+1) = n + 1 + s(n+1).

    Song members with m <= n have their bits of 2^m - 1 and 2^n overlap
    differently and more cases; they are left out.
    """
    a = (2**m + 1) * 2**n - (2**m - 1)
    d = 2**m - 1
    s = n + 1 + digit_sum(2, n + m - 1, n + 1)
    return (a - 2 + d + s) * a - d


def mersenne_genus(n: int) -> int:
    """Genus of mersenne(n) for n >= 2: 2^(n-1)*(2^n + n - 3).

    a = R_n = 2^n - 1, d = 1 and k = n - 1, so the coins below a are all
    of R_1..R_(n-1), and the digit sums over r < a add up to
    B_n = n*2^(n-1) - 1.  With the Selmer half
    (2^n - 2)*(2^n - 1)/2 = (2^(n-1) - 1)*(2^n - 1), the genus is
    2^(n-1)*(n + 2^n - 1 - 2).
    """
    return 2**(n - 1) * (2**n + n - 3)


def thabit_genus(n: int) -> int:
    """Genus of thabit(n) for n >= 1: 2^(n-1)*(9*2^n + 3n - 5).

    a = 3*2^n - 1 = R_(n+1) + R_n + 1, d = 1 and k = n + 1, so R_(n+1)
    is a coin and R_(n+2) = 4*2^n - 1 is above a.  The r < R_(n+1) give
    B_(n+1).  Each r = R_(n+1) + u with 0 <= u <= R_n lies below
    2*R_(n+1), so the greedy takes one coin R_(n+1) and goes on with u:
    these give (R_n + 1) + B_n + s(R_n) = 2^n + B_n + 1.  The digit sums
    add up to (n+1)*2^n - 1 + 2^n + n*2^(n-1) = 2^(n-1)*(3n + 4) - 1, and
    the Selmer half (3*2^n - 2)*(3*2^n - 1)/2 is 2^(n-1)*(9*2^n - 9) + 1.
    """
    return 2**(n - 1) * (9 * 2**n + 3 * n - 5)
