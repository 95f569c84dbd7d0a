"""Closed-form evaluators for the geometric-step generator family.

The family is (a, ba+d, b^2*a + (b^2-1)/(b-1)*d, ..., b^k*a + (b^k-1)/(b-1)*d)
with gcd(a, d) = 1, that is g_0 = a and g_i = R_i*step + a, where
R_i = (b^i-1)/(b-1) and step = (b-1)*a + d.  The least element of each
residue class is read off the greedy digit sum of the class index over the
orderly repunit coins (1, b+1, b^2+b+1, ...), computed by changemaking's
greedy loop, which yields exact Frobenius number, genus and Apery set
formulas with no search, for every a >= 2 and k >= 1:

1. An element x_0*a + sum x_i*g_i equals (x_0 + sum x_i)*a + M*step with
   M = sum x_i*R_i; its residue is d*M mod a.
2. So the least element of class index r (residue d*r mod a) is the minimum
   over m >= 0 of opt(r+m*a)*a + (r+m*a)*step, where opt is the optimal coin
   count over R_1..R_k; the repunit coins are orderly for every k, so opt
   is the greedy count.
3. Any m >= 1 exceeds the m = 0 value by at least a*step - opt(r)*a > 0,
   as opt(r) <= r < a < step.  The minimum is w_r = opt(r)*a + r*step.
4. opt(x-1) <= opt(x) + b-1: drop a unit coin, or trade one coin R_j
   (j >= 2) for b coins R_(j-1), since R_j - 1 = b*R_(j-1).
5. Hence w_(a-1) - w_r >= (a-1-r)*d > 0, so F = w_(a-1) - a.
6. Only the repunits below a matter.  A coin R_i >= a never enters the
   greedy digit sum s(r) of a class index r < a.  And its generator is
   redundant: write R_i = q*a + r with q >= 1; then g_i = R_i*step + a is
   congruent to w_r mod a and g_i - w_r = q*a*step + (1 - s(r))*a > 0, as
   s(r) <= r < a < step, so g_i is w_r, a sum of a and the g_j with
   R_j < a, plus a multiple of a.  So F, the genus, the Apery set and the
   successor test for PF read only the coins R_i < a with i <= k, at most
   about log_b(a) of them however large k is.  F reads them top down:
   the largest is R_j with j <= k and b^j <= (b-1)*a, and R_(i+1) = b*R_i
   + 1 gives each next one as R <- R // b.  The greedy digit sum stops at
   the first zero remainder, so F at an L-bit a holds O(L) bits, and on
   the named families it divides by only the few repunits that carry the
   nonzero digits of a-1.
7. For b = 2, R_i = 2^i - 1, so x is a sum of s coins exactly when
   x + s is a sum of s powers of two, a term 2^0 standing for the coin
   0; here s coins means at most s real ones.  The binary digits of
   x + s are the fewest powers of two summing to it, and halving a power
   above 2^0 adds one, up to x + s >= s terms, so such a sum exists
   exactly when popcount(x + s) <= s.  So opt(x) is the least such s, and
   by step 2 it is the greedy count.  s = x passes, as popcount(2x) =
   popcount(x) <= x, so for x < 2^k the powers stay at most 2^k and the
   coins at most R_k; a longer x first gives x // R_k coins R_k.  The
   test is monotone, popcount(y + 1) <= popcount(y) + 1, and it holds at
   s = p + bitlen(p) + 1 with p = popcount(x), as popcount(x + s) <=
   p + popcount(s) and s <= 2p + 1 has at most bitlen(p) + 1 bits.  So
   a bisection finds s with no repunit read, in O(L) for an L-bit x,
   however x's 1 bits run.

The genus follows from the Apery set by Selmer's formula and PF by the
successor test.  When a is the base-b repunit (b^n - 1)/(b - 1) and
k = n - 1 everything specializes further, down to the pseudo-Frobenius
set; Mersenne, Thabit and repunit semigroups are instances.
"""
from __future__ import annotations

from itertools import takewhile
from math import gcd

from .changemaking import _greedy_prefix, _repunit_greedy_sum, \
    _repunit_walk, repunit_value
from .core import AperySet, ENGINE_CLOSED, Evaluation, GeneratorList, \
    OracleEvaluation, SemigroupReport, _Frozen, _cached, _shown, \
    check_cap, check_int, pseudo_frobenius_from_apery
from .errors import ConsistencyError, InvalidParamsError


# the lower bounds on a, b, d and k, also for verify's GridSpec range starts
_FLOORS = {"a": 2, "b": 2, "d": 1, "k": 1}


class FamilyParams(_Frozen):
    """Parameters (a, b, d, k) of the generator family; gcd(a, d) = 1."""

    _fields = ("a", "b", "d", "k")

    def __init__(self, a: int, b: int, d: int, k: int):
        vars(self).update(a=a, b=b, d=d, k=k)
        for name, low in _FLOORS.items():
            check_int(getattr(self, name), name, low)
        if gcd(self.a, self.d) != 1:
            raise InvalidParamsError(
                f"gcd(a, d) = gcd({_shown(self.a)}, {_shown(self.d)}) != 1")

    @property
    def step(self) -> int:
        """The proof's step (b-1)*a + d: g_i = R_i*step + a."""
        return (self.b - 1) * self.a + self.d


def _param_items(p: FamilyParams) -> tuple[tuple[str, int], ...]:
    return (("a", p.a), ("b", p.b), ("d", p.d), ("k", p.k))


def _family_terms(p: FamilyParams):
    """The generators g_0 = a, g_(i+1) = b*g_i + d for i < k, ascending.

    Read by build_generators, the oracle route and the closed Apery set's
    generating set, not by the closed minima, F or genus.  perfbench's
    checks and the tests' apery_set(build_generators(p)) oracle stay apart
    from it on purpose.
    """
    g = p.a
    yield g
    for _ in range(p.k):
        g = p.b * g + p.d
        yield g


def build_generators(p: FamilyParams) -> GeneratorList:
    """Explicit generator list (a, ba+d, ..., b^k*a + (b^k-1)/(b-1)*d).

    All k+1 of them, O(k^2) bits; evaluate(p, "oracle") reads fewer.
    """
    return GeneratorList(_family_terms(p))


def _exact_half(n: int) -> int:
    q, rem = divmod(n, 2)
    if rem:
        raise ConsistencyError(f"expected an even intermediate value, got {n}")
    return q


def evaluate(source, engine: str) -> Evaluation:
    """The one evaluation path of the library, the CLI and the verifier.

    engine "closed" evaluates the formulas at FamilyParams; engine "oracle"
    derives everything from one oracle Apery set of an explicit generator
    list, or of the family terms of FamilyParams up to (a-1)*g_1, about
    log_b(a) + 3 of them whatever k is.  A minimal generator other than a
    lies in Ap(S, a), so it is at most F + a <= (a-1)*g_1 by Sylvester's
    bound for <a, g_1>; the later terms are redundant.  Each quantity of
    the result is computed on first use and kept.  Any other engine, or the
    closed engine on a generator list, raises InvalidParamsError.
    """
    if engine == "closed" and isinstance(source, FamilyParams):
        return ClosedEvaluation(source)
    if engine != "oracle":
        raise InvalidParamsError(
            f"engine {engine!r} cannot evaluate {type(source).__name__}; the "
            "engines are 'closed' (FamilyParams only) and 'oracle'")
    if isinstance(source, FamilyParams):
        bound = (source.a - 1) * (source.b * source.a + source.d)
        source = GeneratorList(takewhile(bound.__ge__, _family_terms(source)))
    return OracleEvaluation(source)


class ClosedEvaluation(Evaluation):
    """The closed formulas at FamilyParams."""

    engine = ENGINE_CLOSED

    @_cached
    def repunit_n(self) -> int | None:
        # a = R_(k+1) exactly when (b-1)*a + 1 = b^(k+1); that power has
        # more than (k+1)*(bits(b)-1) bits, so a longer one is never built
        p = self.source
        m = (p.b - 1) * p.a + 1
        if (p.k + 1) * (p.b.bit_length() - 1) < m.bit_length() \
                and p.b**(p.k + 1) == m:
            return p.k + 1
        return None

    @_cached
    def frobenius(self) -> int:
        p = self.source
        s_top = _repunit_greedy_sum(p.b, p.k, p.a - 1)
        return (p.step - p.b + s_top) * p.a - p.d

    @_cached
    def genus(self) -> int:
        p = self.source
        n = self.repunit_n
        if n is not None:
            return _repunit_genus(p.b, n, p.d)
        # Selmer's formula over the w_r; (a-1)(step-1) is even: a odd makes
        # a-1 even, a even forces d odd and so step odd
        return sum(self.digit_sums) + _exact_half((p.a - 1) * (p.step - 1))

    @_cached
    def digit_sums(self) -> list[int]:
        # s(r) for every class index r < a: the one greedy pass per class
        p = self.source
        check_cap(p.a, "residue classes")
        # the repunits 1 < R_i < a, i <= k (step 6), largest first, listed once
        above = list(_repunit_walk(p.b, p.k, p.a))[:-1]
        return [_greedy_prefix(above, r) for r in range(p.a)]

    @_cached
    def minima(self) -> tuple[int, ...]:
        # the closed Apery set before AperySet checks it, so that verify
        # reports a wrong formula as a mismatch instead of failing
        p = self.source
        # residue x holds class index x/d mod a, that is x*d_inv % a
        d_inv = pow(p.d, -1, p.a)
        indices = map(p.a.__rmod__, range(0, p.a * d_inv, d_inv))
        return tuple(_class_minima(p, self.digit_sums, indices))

    @_cached
    def apery(self) -> AperySet:
        # a and the g_i with R_i < a, that is g_i < a*(step+1), generate the
        # semigroup (step 6); a list, because tuple() of an iterator shrinks
        # its result in place, which raised the closed-lib benchmark's peak
        # RSS by 1-2 MB (Python 3.11)
        p = self.source
        bound = p.a * (p.step + 1)
        return AperySet(p.a, self.minima,
                        list(takewhile(bound.__gt__, _family_terms(p))))

    @_cached
    def pf(self) -> tuple[int, ...]:
        p = self.source
        n = self.repunit_n
        if n is not None:
            f = self.frobenius  # pseudo_frobenius_closed's F - t*d, t < n-1
            return tuple(range(f - (n - 2) * p.d, f + 1, p.d))
        return tuple(pseudo_frobenius_from_apery(self.apery))


def _class_minima(p: FamilyParams, sums, indices) -> list[int]:
    # w_r = s(r) * a + r * step for each class index r, the least element
    # congruent to d*r mod a (steps 2 and 3 above); sums[r] is the greedy
    # digit sum s(r) over the repunits below a
    a, step = p.a, p.step
    return [sums[r] * a + r * step for r in indices]


def residue_minimum(p: FamilyParams, r: int) -> int:
    """Least semigroup element congruent to d*r mod a, for 0 <= r <= a-1."""
    if not 0 <= check_int(r, "residue index") < p.a:
        raise InvalidParamsError(
            f"residue index {_shown(r)} outside 0..{_shown(p.a - 1)}")
    s = _repunit_greedy_sum(p.b, p.k, r)
    return _class_minima(p, {r: s}, (r,))[0]


def apery_closed(p: FamilyParams) -> AperySet:
    """Full Apery set from the closed form, one greedy presentation per class.

    The value for class index r lands at residue d*r mod a; gcd(a, d) = 1
    makes the placement a bijection.  Materializes a list of length a, so the
    same residue cap as the oracle applies.
    """
    return evaluate(p, "closed").apery


def frobenius_closed(p: FamilyParams) -> int:
    """Frobenius number ((b-1)*a - b + d + digit_sum(a-1)) * a - d."""
    return evaluate(p, "closed").frobenius


def genus_closed(p: FamilyParams) -> int:
    """Genus: digit-sum series over classes 1..a-1 plus (a-1)((b-1)a+d-1)/2.

    The series sums the table of greedy digit sums that the closed Apery
    set reads, a entries, so the residue cap applies.  When (a, k) has the
    repunit shape a = (b^(k+1)-1)/(b-1) the genus is repunit_general_genus
    instead, with no table and no cap.
    """
    return evaluate(p, "closed").genus


def repunit_specialization(p: FamilyParams) -> int | None:
    """Return n with a = (b^n - 1)/(b - 1) and k = n - 1, or None.

    Compares (b-1)*a + 1 with b^(k+1), which it builds only when the bit
    lengths allow them to be equal.
    """
    return ClosedEvaluation(p).repunit_n


def repunit_params(b: int, n: int, d: int = 1) -> FamilyParams:
    """Family parameters of the repunit specialization a=(b^n-1)/(b-1), k=n-1.

    Checks b and n before reading them; FamilyParams checks d and gcd(a, d).
    """
    check_int(b, "b", 2)
    check_int(n, "n", 2)
    return FamilyParams(a=repunit_value(b, n), b=b, d=d, k=n - 1)


def repunit_general_frobenius(b: int, n: int, d: int = 1) -> int:
    """Frobenius number (b^n + d - 1) * (b^n - 1)/(b - 1) - d."""
    a = repunit_params(b, n, d).a
    return (b**n + d - 1) * a - d


def repunit_general_genus(b: int, n: int, d: int = 1) -> int:
    """Genus (b^n - b)(b^n + d - 1)/(2(b-1)) + b^n (n-1)/2, exactly."""
    repunit_params(b, n, d)
    return _repunit_genus(b, n, d)


def _repunit_genus(b: int, n: int, d: int) -> int:
    # (b^n - b)/(b - 1) = b * repunit(b, n-1); halve the combined sum exactly
    return _exact_half(b * repunit_value(b, n - 1) * (b**n + d - 1)
                       + b**n * (n - 1))


def pseudo_frobenius_closed(b: int, n: int, d: int = 1) -> tuple[list[int], int]:
    """Pseudo-Frobenius set {F, F-d, ..., F-(n-2)d} and type n-1.

    Only valid at the repunit specialization; for general parameters
    ClosedEvaluation.pf applies the successor test to the closed Apery set.
    """
    f = repunit_general_frobenius(b, n, d)
    return sorted(f - t * d for t in range(n - 1)), n - 1


def report_closed(p: FamilyParams) -> SemigroupReport:
    """Closed-form report: F by formula everywhere.

    At the repunit shape g, PF and type come from the specialized formulas.
    Otherwise g and PF read the one table of greedy digit sums: g sums it,
    and PF applies the successor test of pseudo_frobenius_from_apery to the
    closed Apery set built from it; the residue cap applies.
    """
    return evaluate(p, "closed").report()
