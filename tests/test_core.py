"""Oracle engine tests: Apery sets by the round-robin shortest-path pass,
quantities derived from them, and agreement with the naive sieve reference."""
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from apery import (
    AperySet,
    ConsistencyError,
    FamilyParams,
    GeneratorList,
    InvalidParamsError,
    OracleInfeasibleError,
    apery_closed,
    apery_set,
    build_generators,
    contains,
    frobenius_from_apery,
    gaps,
    genus_from_apery,
    pseudo_frobenius_from_apery,
    semigroup_report,
)
from apery.closed_forms import evaluate
from apery.core import ORACLE_CAP_ENV

import oracle_ref


class TestGeneratorList:
    def test_canonicalizes_sort_and_dedupe(self):
        gens = GeneratorList([23, 5, 11, 5])
        assert gens.elements == (5, 11, 23)
        assert gens.least == 5

    def test_rejects_common_divisor(self):
        with pytest.raises(InvalidParamsError):
            GeneratorList([4, 6])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParamsError):
            GeneratorList([0, 3])
        with pytest.raises(InvalidParamsError):
            GeneratorList([-5, 7])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParamsError):
            GeneratorList([])

    @pytest.mark.parametrize("gens, bad", [
        ([5, 7.9], "7.9"), ([5.0, 7], "5.0"), ([True, 3], "True"),
        ([5, "7"], "'7'"),
    ])
    def test_rejects_non_integers(self, gens, bad):
        with pytest.raises(InvalidParamsError, match=bad):
            GeneratorList(gens)
        # int() would have answered F = 23 for <5, 7>
        with pytest.raises(InvalidParamsError, match=bad):
            semigroup_report(gens)

    def test_allows_unit_generator(self):
        assert GeneratorList([1]).elements == (1,)
        assert GeneratorList([1, 4]).elements == (1, 4)


class TestAperySet:
    def test_shortest_path_matches_frozen_value(self):
        # independently confirmed by sieve before freezing
        ape = apery_set([7, 23, 71])
        assert ape.minima == (0, 71, 23, 94, 46, 117, 69)

    def test_full_semigroup(self):
        ape = apery_set([1])
        assert ape.minima == (0,)
        assert frobenius_from_apery(ape) == -1
        assert genus_from_apery(ape) == 0

    def test_two_generators_sylvester(self):
        # F(p, q) = pq - p - q for coprime p, q
        for p, q in [(3, 7), (5, 11), (7, 15), (4, 9)]:
            ape = apery_set([p, q])
            assert frobenius_from_apery(ape) == p * q - p - q
            assert genus_from_apery(ape) == (p - 1) * (q - 1) // 2

    def test_structural_validation(self):
        with pytest.raises(Exception):
            AperySet(3, (0, 1))  # wrong length
        with pytest.raises(Exception):
            AperySet(3, (1, 4, 5))  # class 0 must hold 0
        with pytest.raises(Exception):
            AperySet(3, (0, 5, 4))  # residue mismatch

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "10")
        with pytest.raises(OracleInfeasibleError, match=ORACLE_CAP_ENV):
            apery_set([101, 103])

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "10")
        with pytest.raises(OracleInfeasibleError):
            apery_set([101, 103])
        monkeypatch.setenv(ORACLE_CAP_ENV, "200")
        assert apery_set([101, 103]).modulus == 101

    def test_cap_env_invalid(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "ten")
        with pytest.raises(InvalidParamsError):
            apery_set([5, 11])


class TestDerivedQuantities:
    def test_frobenius_and_genus_frozen(self):
        ape = apery_set([7, 23, 71])
        assert frobenius_from_apery(ape) == 110
        assert genus_from_apery(ape) == 57

    def test_contains(self):
        ape = apery_set([5, 11, 23])
        assert contains(ape, 0)
        assert contains(ape, 33)  # 11 + 22
        assert contains(ape, 30)
        assert not contains(ape, 29)  # the Frobenius number
        assert not contains(ape, 1)
        assert not contains(ape, -5)
        assert contains(ape, 30 + 29 * 5)

    def test_gaps_frozen(self):
        ape = apery_set([5, 11, 23])
        assert gaps(ape) == [1, 2, 3, 4, 6, 7, 8, 9, 12, 13, 14,
                             17, 18, 19, 24, 29]
        assert len(gaps(ape)) == genus_from_apery(ape)

    def test_gap_count_capped(self, monkeypatch):
        ape = apery_set([5, 11, 23])  # genus 16
        monkeypatch.setenv(ORACLE_CAP_ENV, "16")
        assert len(gaps(ape)) == 16
        monkeypatch.setenv(ORACLE_CAP_ENV, "15")
        with pytest.raises(OracleInfeasibleError):
            gaps(ape)

    def test_evaluation_gaps_follow_env_cap(self, monkeypatch):
        source = GeneratorList([101, 103])  # genus 5100
        monkeypatch.setenv(ORACLE_CAP_ENV, "5100")
        assert len(evaluate(source, "oracle").gaps) == 5100
        monkeypatch.setenv(ORACLE_CAP_ENV, "5099")
        evaluation = evaluate(source, "oracle")
        assert evaluation.apery.modulus == 101  # under the cap
        with pytest.raises(OracleInfeasibleError, match=ORACLE_CAP_ENV):
            evaluation.gaps

    def test_pseudo_frobenius_frozen(self):
        assert pseudo_frobenius_from_apery(apery_set([5, 11, 23])) == [17, 29]
        assert pseudo_frobenius_from_apery(apery_set([7, 15, 31])) == [54, 55]
        assert pseudo_frobenius_from_apery(
            apery_set([15, 31, 63, 127])) == [237, 238, 239]

    def test_pseudo_frobenius_ignores_cap_on_built_set(self, monkeypatch):
        # the cap guards building the residue table, not reading one
        ape = apery_set([5, 11, 23])
        monkeypatch.setenv(ORACLE_CAP_ENV, "2")
        assert pseudo_frobenius_from_apery(ape) == [17, 29]

    def test_pf_definition_via_reference(self):
        for gens in ([5, 11, 23], [7, 23, 71], [4, 9], [6, 10, 15],
                     [8, 11, 14, 15]):
            assert pseudo_frobenius_from_apery(apery_set(gens)) == \
                oracle_ref.ref_pf(gens)

    def test_generators_do_not_affect_equality(self):
        ape = apery_set([5, 11, 23])
        assert ape.generators == (11, 23)
        hand_built = AperySet(5, ape.minima)
        assert hand_built.generators == ape.minima[1:]
        assert hand_built == ape
        assert hash(hand_built) == hash(ape)

    def test_generator_outside_semigroup_rejected(self):
        minima = apery_set([5, 11, 23]).minima
        for bad in ((7,), (11, 23, 4), (0,), (-6,)):
            with pytest.raises(ConsistencyError):
                AperySet(5, minima, bad)

    def test_report_fields(self):
        report = semigroup_report([5, 11, 23])
        assert report.engine == "oracle"
        assert report.frobenius == 29
        assert report.genus == 16
        assert report.pf == (17, 29)
        assert report.type == 2
        assert report.frobenius == max(report.pf)


@st.composite
def generator_sets(draw):
    least = draw(st.integers(min_value=2, max_value=40))
    extras = draw(st.lists(st.integers(min_value=2, max_value=200),
                           min_size=1, max_size=4))
    gens = sorted({least, *extras})
    if not oracle_ref.coprime(gens):
        gens.append(min(gens) + 1)  # consecutive integers force gcd 1
    return sorted(set(gens))


class TestAgainstSieve:
    @given(generator_sets())
    @settings(max_examples=100, deadline=None)
    def test_apery_matches_sieve(self, gens):
        ape = apery_set(gens)
        assert list(ape.minima) == oracle_ref.ref_apery(gens)

    @given(generator_sets())
    @settings(max_examples=100, deadline=None)
    def test_quantities_match_sieve(self, gens):
        ape = apery_set(gens)
        assert frobenius_from_apery(ape) == oracle_ref.ref_frobenius(gens)
        assert genus_from_apery(ape) == oracle_ref.ref_genus(gens)
        assert gaps(ape) == oracle_ref.ref_gaps(gens)


def _smooth(n: int) -> bool:
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


@st.composite
def smooth_least_sets(draw):
    """Least generator a product of small primes and other generators
    drawn as multiples of its divisors, so that gcd(a, g) > 1 is common."""
    least = draw(st.sampled_from([n for n in range(4, 121) if _smooth(n)]))
    divisors = [1] + [f for f in range(2, least + 1) if least % f == 0]
    gens = {least}
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        f = draw(st.sampled_from(divisors))
        gens.add(f * draw(st.integers(min_value=least // f + 1,
                                      max_value=3 * least // f)))
    if not oracle_ref.coprime(gens):
        gens.add(least + 1)  # consecutive integers force gcd 1
    return sorted(gens)


class TestRoundRobin:
    """Each branch of the round-robin pass in apery_set, against the
    naive reference, and the pruned steps it stores as generators."""

    @pytest.mark.parametrize("gens, steps", [
        # gcd(6, 8) = 2: the odd classes wait, unreached, for 9
        ((6, 8, 9), (8, 9)),
        # 20 walks the cycle {2, 6, 10} from 6, 27 the cycle {1, 4, 7, 10}
        # from 4: starts away from residue 0
        ((12, 18, 20, 27), (18, 20, 27)),
        # 14 = 7 + 7 is already in the semigroup when its turn comes
        ((5, 7, 14), (7, 14)),
        # 21 = 0 mod 7 leads to no other class and is pruned
        ((7, 10, 21), (10,)),
    ])
    def test_branches_match_reference(self, gens, steps):
        ape = apery_set(gens)
        assert list(ape.minima) == oracle_ref.ref_apery(gens)
        assert ape.generators == steps

    def test_matches_reference_on_seeded_sets(self):
        rng = Random(2007)
        for _ in range(25):
            a = rng.randint(2, 400)
            f = rng.choice([d for d in range(1, a + 1) if a % d == 0])
            gens = [a]
            for _ in range(rng.randint(1, 5)):
                m = rng.choice((1, f))
                gens.append(m * rng.randint(a // m + 1, 2 * a // m))
            if not oracle_ref.coprime(gens):
                gens.append(a + 1)  # consecutive integers force gcd 1
            ape = apery_set(gens)
            assert list(ape.minima) == oracle_ref.ref_apery(gens), gens
            classes = {g % a for g in gens} - {0}
            assert ape.generators == tuple(sorted(
                min(g for g in gens if g % a == r) for r in classes)), gens

    @given(smooth_least_sets())
    @settings(max_examples=100, deadline=None)
    def test_smooth_least_generator_matches_reference(self, gens):
        ape = apery_set(gens)
        assert list(ape.minima) == oracle_ref.ref_apery(gens)


def _large_generator_set(a: int, factors: tuple[int, ...]) -> list[int]:
    """Seeded set of the oracle benchmark's shape: least generator a and 2-5
    more in (a, 4a].  With factors (each dividing a), every further
    generator is a multiple of one of them, so every step g has
    gcd(a, g mod a) > 1 and no walk covers the whole table."""
    rng = Random(a)
    while True:
        gens = [a]
        for _ in range(rng.randint(2, 5)):
            f = rng.choice(factors or (1,))
            gens.append(f * rng.randint(a // f + 1, 4 * a // f))
        if oracle_ref.coprime(gens):
            return sorted(set(gens))


class TestOracleAtBenchmarkSizes:
    """The round robin and the successor test at the sizes the oracle
    benchmark runs (a up to 3000), far past the seeded and generated sets
    above, against the naive sieve."""

    @pytest.mark.parametrize("a, factors", [
        (600, ()), (700, ()), (850, ()), (1200, ()), (3000, ()),
        (1050, (2, 3, 5, 7)),
    ])
    def test_matches_reference(self, a, factors):
        gens = _large_generator_set(a, factors)
        if factors:
            assert all(gcd(a, g % a) > 1 for g in gens[1:]), gens
        table = oracle_ref.full_sieve(gens)
        ape = apery_set(gens)
        assert list(ape.minima) == oracle_ref.ref_apery(gens, table), gens
        assert pseudo_frobenius_from_apery(ape) == \
            oracle_ref.ref_pf(gens, table), gens


def _pf_generator_set(rng: Random, shape: int) -> list[int]:
    """Seeded generator set; shapes 1-4 add the degenerate inputs the
    successor test must tolerate."""
    least = rng.randint(2, 20)
    gens = [least] + [rng.randint(least + 1, 120)
                      for _ in range(rng.randint(1, 4))]
    if shape == 1:  # redundant: a sum of two generators
        gens.append(rng.choice(gens) + rng.choice(gens))
    elif shape == 2:  # a second generator in an occupied residue class
        gens.append(rng.choice(gens[1:]) + least * rng.randint(1, 4))
    elif shape == 3:  # a multiple of the least generator
        gens.append(least * rng.randint(2, 5))
    elif shape == 4:  # 1 makes the semigroup all of N
        gens.append(1)
    if not oracle_ref.coprime(gens):
        gens.append(least + 1)  # consecutive integers force gcd 1
    return sorted(set(gens))


class TestPseudoFrobeniusSuccessorTest:
    def test_matches_definition_on_seeded_sets(self):
        rng = Random(2009)
        for i in range(200):
            gens = _pf_generator_set(rng, i % 5)
            ape = apery_set(gens)
            pf = pseudo_frobenius_from_apery(ape)
            assert pf == oracle_ref.ref_pf(gens), gens
            # without generators the Apery set itself is the fallback
            hand_built = AperySet(ape.modulus, ape.minima)
            assert pseudo_frobenius_from_apery(hand_built) == pf, gens

    @pytest.mark.parametrize("gens", [
        (5, 11, 23), (7, 15, 31), (15, 31, 63, 127), (10, 19, 23, 37)])
    def test_first_pass_wraps_past_the_last_class(self, gens):
        # the first pass reads minima[(r + s) % a] from minima rotated by
        # s = g % a; a maximal class with r + s >= a reads past its end
        ape = apery_set(gens)
        a, s = ape.modulus, ape.generators[0] % ape.modulus
        pf = pseudo_frobenius_from_apery(ape)
        assert any(u % a + s >= a for u in pf)
        assert pf == oracle_ref.ref_pf(list(gens))

    def test_unpruned_generators_give_the_same_pf(self):
        gens = [6, 9, 10, 12, 15, 16, 19, 36]  # redundant, same class, 6k
        ape = apery_set(gens)
        unpruned = AperySet(ape.modulus, ape.minima, tuple(gens))
        assert pseudo_frobenius_from_apery(unpruned) == \
            pseudo_frobenius_from_apery(ape) == oracle_ref.ref_pf(gens)

    def test_closed_apery_set_still_equals_oracle(self):
        for a, b, d, k in [(7, 3, 2, 2), (10, 2, 3, 3), (31, 2, 1, 4),
                           (40, 5, 1, 2)]:
            p = FamilyParams(a=a, b=b, d=d, k=k)
            closed = apery_closed(p)
            oracle = apery_set(build_generators(p))
            assert closed == oracle
            assert closed.generators != oracle.generators
            assert pseudo_frobenius_from_apery(closed) == \
                pseudo_frobenius_from_apery(oracle)
