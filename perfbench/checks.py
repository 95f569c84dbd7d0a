"""Answer checks that share no code with the layer that produced the answer.

Closed-form answers are checked against the core Dijkstra oracle (for a up to
ORACLE_CHECK_MAX_A), against the repunit closed forms for repunit shapes, or
by re-deriving F from the greedy digit sum of the changemaking layer.  Oracle
answers are checked by a bitset sieve.  Pseudo-Frobenius sets are checked by
the successor test on an Apery set: w is maximal iff w + g is outside the
Apery set for every generator g.  A check that cannot run is counted under
UNCHECKED, never passed silently.
"""
from __future__ import annotations

from math import gcd

ORACLE_CHECK_MAX_A = 20_000
# a bitset of 2**25 bits is 4 MiB; larger sieves are skipped and counted
SIEVE_MAX_BITS = 2**25

# check kinds, printed with their counts
ORACLE = "oracle"
SIEVE = "sieve"
REPUNIT = "repunit"
REDERIVED = "rederived"
LIBRARY = "library"
COUNTS = "counts"
UNCHECKED = "unchecked"


def repunit(b: int, n: int) -> int:
    return (b**n - 1) // (b - 1)


def family_abdk(name: str, params: dict) -> tuple[int, int, int, int]:
    """(a, b, d, k) of a named family, from the published definitions."""
    p = params
    if name == "mersenne":
        return 2**p["n"] - 1, 2, 1, p["n"] - 1
    if name == "thabit":
        return 3 * 2**p["n"] - 1, 2, 1, p["n"] + 1
    if name == "gu-ze-tang":
        n, m = p["n"], p["m"]
        return (2**m - 1) * 2**n - 1, 2, 1, n + m - 1
    if name == "song-gt":
        n, m = p["n"], p["m"]
        delta = 1 if n == 0 else (m if m <= n else m - 1)
        return (2**m + 1) * 2**n - (2**m - 1), 2, 2**m - 1, n + delta
    if name == "liu-xin":
        m, k, d = p["m"], p["k"], p.get("d", 1)
        return m * (2**k - 1) + 2**(k - 1) - 1, 2, d, k
    if name == "repunit":
        return repunit(p["b"], p["n"]), p["b"], 1, p["n"] - 1
    if name == "gu-ze":
        b, n = p["b"], p["n"]
        return b**(n + 1) + repunit(b, n), b, 1, n + 1
    if name == "thabit-base-b":
        b, n = p["b"], p["n"]
        return (b + 1) * b**n - 1, b, b - 1, n + 1
    raise ValueError(f"unknown family {name!r}")


def family_gens(a: int, b: int, d: int, k: int) -> list[int]:
    return [a] + [b**i * a + repunit(b, i) * d for i in range(1, k + 1)]


def repunit_exponent(a: int, b: int, k: int) -> int | None:
    """n with a = (b^n - 1)/(b - 1) and k = n - 1, or None."""
    return k + 1 if repunit(b, k + 1) == a else None


def invariants_from_minima(minima, gens) -> tuple[int, int, tuple[int, ...]]:
    """(F, genus, PF) from an Apery set of the least generator.

    Genus is Selmer's sum of floor(w / a); PF uses the successor test, which
    is exact for any generating set because the Apery set is closed downward.
    """
    a = len(minima)
    if a == 1:
        return -1, 0, (-1,)
    frob = max(minima) - a
    genus = sum(w // a for w in minima)
    steps = [g for g in gens if g % a]
    pf = tuple(sorted(w - a for w in minima
                      if all(minima[(w + g) % a] != w + g for g in steps)))
    return frob, genus, pf


def sieve_invariants(gens, frob: int):
    """(F, genus, PF) by a bitset sieve, taking F as a claim to be verified.

    The claim holds iff F is a gap and the a integers above it are elements:
    adding a then reaches everything larger.  Returns None when the sieve
    would exceed SIEVE_MAX_BITS, and F = None when the claim is false.
    """
    gens = sorted(set(gens))
    a, top = gens[0], gens[-1]
    if a == 1:
        return -1, 0, (-1,)
    schur = (a - 1) * (top - 1) - 1
    if not -1 <= frob <= schur:
        return None, None, None
    size = frob + top + 1
    if size > SIEVE_MAX_BITS:
        return None
    full = (1 << size) - 1
    member = 1
    for g in gens:
        step = g
        while step < size:
            member |= (member << step) & full
            step <<= 1
    window = (1 << a) - 1
    if (member >> frob) & 1 or (member >> (frob + 1)) & window != window:
        return None, None, None
    below = (1 << (frob + 1)) - 1
    gap_mask = ~member & below
    genus = gap_mask.bit_count()
    pf_mask = gap_mask
    for g in gens:
        pf_mask &= member >> g
    pf = []
    while pf_mask:
        low = pf_mask & -pf_mask
        pf.append(low.bit_length() - 1)
        pf_mask ^= low
    return frob, genus, tuple(pf)


def rederived_frobenius(a: int, b: int, d: int, k: int) -> int:
    """F = ((b-1)a - b + d + s(a-1))a - d with s from the changemaking layer."""
    from apery.changemaking import digit_sum
    return ((b - 1) * a - b + d + digit_sum(b, k, a - 1)) * a - d


def coprime(values) -> bool:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g == 1
