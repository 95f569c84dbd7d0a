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
   about log_b(a) of them however large k is.

The genus follows from the Apery set by Selmer's formula and PF by the
successor test.  When a is the base-b repunit (b^n - 1)/(b - 1) and
k = n - 1 everything specializes further, down to the pseudo-Frobenius
set; Mersenne, Thabit and repunit semigroups are instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, takewhile
from math import gcd

from .changemaking import _greedy_prefix, _repunits, repunit_value
from .core import AperySet, ENGINE_CLOSED, Evaluation, GeneratorList, \
    OracleEvaluation, SemigroupReport, _cached, check_cap, check_int, \
    pseudo_frobenius_from_apery
from .errors import ConsistencyError, InvalidParamsError


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (a, b, d, k) of the generator family; gcd(a, d) = 1."""

    a: int
    b: int
    d: int
    k: int

    def __post_init__(self):
        for name in ("a", "b", "d", "k"):
            check_int(getattr(self, name), name)
        if self.a < 2:
            raise InvalidParamsError(f"need a >= 2, got {self.a}")
        if self.b < 2:
            raise InvalidParamsError(f"need b >= 2, got {self.b}")
        if self.d < 1:
            raise InvalidParamsError(f"need d >= 1, got {self.d}")
        if self.k < 1:
            raise InvalidParamsError(f"need k >= 1, got {self.k}")
        if gcd(self.a, self.d) != 1:
            raise InvalidParamsError(
                f"gcd(a, d) = gcd({self.a}, {self.d}) != 1")


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
    def coins(self) -> list[int]:
        # the repunits R_i < a with i <= k (step 6 above)
        p = self.source
        return _repunits(p.b, p.k, below=p.a)

    @_cached
    def above_unit(self) -> list[int]:
        # the coins other than 1, largest first, as _greedy_prefix reads them
        return self.coins[:0:-1]

    @_cached
    def repunit_n(self) -> int | None:
        # a = R_(k+1) exactly when every R_i with i <= k lies below a and
        # the next repunit b*R_k + 1 is a
        p, coins = self.source, self.coins
        if len(coins) == p.k and p.b * coins[-1] + 1 == p.a:
            return p.k + 1
        return None

    @_cached
    def frobenius(self) -> int:
        p = self.source
        s_top = _greedy_prefix(self.above_unit, p.a - 1)
        return ((p.b - 1) * p.a - p.b + p.d + s_top) * p.a - p.d

    @_cached
    def genus(self) -> int:
        p = self.source
        a, b, d = p.a, p.b, p.d
        n = self.repunit_n
        if n is not None:
            return repunit_general_genus(b, n, d)
        above = self.above_unit
        series = sum(_greedy_prefix(above, r) for r in range(1, a))
        # (a-1)((b-1)a + d - 1) is even: a odd makes a-1 even, a even
        # forces d odd
        return series + _exact_half((a - 1) * ((b - 1) * a + d - 1))

    @_cached
    def minima(self) -> tuple[int, ...]:
        # the closed Apery set before AperySet checks it, so that verify
        # reports a wrong formula as a mismatch instead of failing
        p = self.source
        a, d = p.a, p.d
        check_cap(a, "residue classes")
        # residue s holds class index s/d mod a
        d_inv = pow(d, -1, a)
        return tuple(_class_minima(p, self.above_unit,
                                   [s * d_inv % a for s in range(a)]))

    @_cached
    def apery(self) -> AperySet:
        # a and the g_i with R_i < a, the first len(coins) + 1 terms,
        # generate the semigroup (step 6); a list, because tuple() of an
        # iterator shrinks its result in place, which raised the closed-lib
        # benchmark's peak RSS by 1-2 MB (Python 3.11)
        p = self.source
        return AperySet(p.a, self.minima,
                        list(islice(_family_terms(p), len(self.coins) + 1)))

    @_cached
    def pf(self) -> tuple[int, ...]:
        p = self.source
        n = self.repunit_n
        if n is not None:
            return tuple(pseudo_frobenius_closed(p.b, n, p.d)[0])
        return tuple(pseudo_frobenius_from_apery(self.apery))


def _class_minima(p: FamilyParams, above, indices) -> list[int]:
    # w_r = (greedy digit sum of r) * a + r * step for each class index r,
    # the least element congruent to d*r mod a (steps 2 and 3 above); above
    # is ClosedEvaluation.above_unit
    a = p.a
    step = (p.b - 1) * a + p.d
    return [_greedy_prefix(above, r) * a + r * step for r in indices]


def residue_minimum(p: FamilyParams, r: int) -> int:
    """Least semigroup element congruent to d*r mod a, for 0 <= r <= a-1."""
    if not 0 <= r < p.a:
        raise InvalidParamsError(f"residue index {r} outside 0..{p.a - 1}")
    return _class_minima(p, ClosedEvaluation(p).above_unit, (r,))[0]


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

    The series is a loop of greedy digit sums, one per class, over the
    repunit coins below a: O(a*min(k, log_b a)) steps, with no bound on a,
    so it is exponential in the bit length of a.  When (a, k) matches the
    repunit specialization a = (b^(k+1)-1)/(b-1) the whole genus is
    repunit_general_genus instead (the two are cross-checked in the test
    suite).
    """
    return evaluate(p, "closed").genus


def repunit_specialization(p: FamilyParams) -> int | None:
    """Return n with a = (b^n - 1)/(b - 1) and k = n - 1, or None.

    Builds the repunits only up to the first one at or above a.
    """
    return ClosedEvaluation(p).repunit_n


def _check_repunit_args(b: int, n: int, d: int) -> int:
    if b < 2:
        raise InvalidParamsError(f"need b >= 2, got {b}")
    if n < 2:
        raise InvalidParamsError(f"need n >= 2, got {n}")
    if d < 1:
        raise InvalidParamsError(f"need d >= 1, got {d}")
    a = repunit_value(b, n)
    if gcd(a, d) != 1:
        raise InvalidParamsError(
            f"gcd((b^n-1)/(b-1), d) = gcd({a}, {d}) != 1")
    return a


def repunit_params(b: int, n: int, d: int = 1) -> FamilyParams:
    """Family parameters of the repunit specialization a=(b^n-1)/(b-1), k=n-1."""
    return FamilyParams(a=_check_repunit_args(b, n, d), b=b, d=d, k=n - 1)


def repunit_general_frobenius(b: int, n: int, d: int = 1) -> int:
    """Frobenius number (b^n + d - 1) * (b^n - 1)/(b - 1) - d."""
    a = _check_repunit_args(b, n, d)
    return (b**n + d - 1) * a - d


def repunit_general_genus(b: int, n: int, d: int = 1) -> int:
    """Genus (b^n - b)(b^n + d - 1)/(2(b-1)) + b^n (n-1)/2, exactly."""
    _check_repunit_args(b, n, d)
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
    """Closed-form report: F and g by formula everywhere.

    PF and type come from the specialized formula when (a, k) has the
    repunit shape; otherwise from the closed Apery set, which carries a and
    the family generators g_i with R_i < a, by the successor test of
    pseudo_frobenius_from_apery.  The latter materializes a list of length
    a, so the residue cap applies off the repunit shape.
    """
    return evaluate(p, "closed").report()
