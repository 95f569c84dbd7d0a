"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: membership by additive sieve, Apery
sets by first-hit scan, pseudo-Frobenius by direct definition.  No shortest
paths, no greedy shortcuts, so agreement with the package is meaningful.
"""
from math import gcd
from functools import reduce


def sieve(gens, limit):
    """Boolean reachability table for 0..limit over the given generators."""
    reachable = [False] * (limit + 1)
    reachable[0] = True
    for i in range(1, limit + 1):
        for g in gens:
            if g <= i and reachable[i - g]:
                reachable[i] = True
                break
    return reachable


def safe_limit(gens):
    # any Apery value is < min(gens) * max(gens); one extra max for slack
    return min(gens) * max(gens) + max(gens)


def full_sieve(gens):
    """A sieve reaching as far as ref_pf reads, so that one table serves
    ref_apery, ref_frobenius and ref_pf alike; a large set is then sieved
    once instead of once per reference call."""
    return sieve(gens, safe_limit(gens) + max(gens))


def ref_apery(gens, table=None):
    """Least element per residue class modulo the least generator."""
    a = min(gens)
    if table is None:
        table = sieve(gens, safe_limit(gens))
    minima = [None] * a
    found = 0
    for i, ok in enumerate(table):
        if ok and minima[i % a] is None:
            minima[i % a] = i
            found += 1
            if found == a:
                break
    assert all(m is not None for m in minima)
    return minima


def ref_frobenius(gens, table=None):
    if 1 in gens:
        return -1
    return max(ref_apery(gens, table)) - min(gens)


def ref_genus(gens):
    table = sieve(gens, safe_limit(gens))
    return sum(1 for ok in table[1:] if not ok)


def ref_gaps(gens):
    table = sieve(gens, safe_limit(gens))
    return [i for i, ok in enumerate(table) if not ok and i > 0]


def ref_pf(gens, table=None):
    """Pseudo-Frobenius numbers straight from the definition.

    u is pseudo-Frobenius iff u is a gap and u + g is in the semigroup for
    every generator g (adding a generator at a time reaches any nonzero
    element).  The full semigroup N has PF = {-1} by the F = -1 convention.
    """
    if 1 in gens:
        return [-1]
    if table is None:
        table = full_sieve(gens)
    frob = ref_frobenius(gens, table)
    return [u for u in range(1, frob + 1)
            if not table[u] and all(table[u + g] for g in gens)]


def coprime(gens):
    return reduce(gcd, gens) == 1


def ref_opt_coins(coins, amount):
    """Minimum coin count by plain breadth-first relaxation over amounts."""
    best = [None] * (amount + 1)
    best[0] = 0
    for i in range(1, amount + 1):
        options = [best[i - c] for c in coins if c <= i and best[i - c] is not None]
        if options:
            best[i] = 1 + min(options)
    assert best[amount] is not None, "unit coin guarantees feasibility"
    return best[amount]
