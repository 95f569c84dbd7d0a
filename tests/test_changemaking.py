"""Change-making tests: DP vs greedy, orderliness certification, greedy
presentations and the colex order machinery."""
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from apery import (
    CoinSystem,
    GreedyPresentation,
    InvalidParamsError,
    OracleInfeasibleError,
    colex_compare,
    digit_sum,
    greedy_count,
    greedy_presentation,
    is_orderly,
    opt_count,
    repunit_coins,
    weight,
)
from apery.changemaking import _greedy_prefix, _opt_counts_upto, \
    _repunit_greedy_sum, _repunit_walk

import oracle_ref


class TestCoinSystem:
    def test_canonicalizes(self):
        coins = CoinSystem([4, 1, 3, 3])
        assert coins.denominations == (1, 3, 4)

    def test_requires_unit(self):
        with pytest.raises(InvalidParamsError):
            CoinSystem([2, 5])

    @pytest.mark.parametrize("coins, bad", [
        ([1, 3.5], "3.5"), ([1.0, 3], "1.0"), ([True, 3], "True"),
        ([1, "7"], "'7'"),
    ])
    def test_refuses_non_integers(self, coins, bad):
        with pytest.raises(InvalidParamsError, match=bad):
            CoinSystem(coins)
        with pytest.raises(InvalidParamsError, match=bad):
            greedy_count(coins, 7)

    def test_repunit_coins(self):
        assert repunit_coins(2, 4).denominations == (1, 3, 7, 15)
        assert repunit_coins(3, 3).denominations == (1, 4, 13)
        assert repunit_coins(10, 2).denominations == (1, 11)
        assert repunit_coins(5, 1).denominations == (1,)

    def test_repunit_coins_bounds(self):
        with pytest.raises(InvalidParamsError):
            repunit_coins(1, 3)
        with pytest.raises(InvalidParamsError):
            repunit_coins(3, 0)


class TestCounts:
    def test_classic_non_canonical_example(self):
        coins = CoinSystem([1, 3, 4])
        assert opt_count(coins, 6) == 2   # 3 + 3
        assert greedy_count(coins, 6) == 3  # 4 + 1 + 1

    def test_zero_amount(self):
        assert opt_count([1, 5], 0) == 0
        assert greedy_count([1, 5], 0) == 0

    def test_negative_amount_rejected(self):
        with pytest.raises(InvalidParamsError):
            opt_count([1, 5], -1)
        with pytest.raises(InvalidParamsError):
            greedy_count([1, 5], -1)

    def test_dp_cap(self, monkeypatch):
        with pytest.raises(OracleInfeasibleError):
            opt_count([1, 5], 10**9)
        # amount M needs M + 1 cells: 9 fits a cap of 10, 10 does not
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "10")
        assert opt_count([1, 5], 9) == 5
        with pytest.raises(OracleInfeasibleError):
            opt_count([1, 5], 10)

    def test_against_reference(self):
        for coins in ([1, 3, 4], [1, 2, 5], [1, 5, 8], [1, 7, 10, 13]):
            for amount in range(0, 80):
                assert opt_count(coins, amount) == \
                    oracle_ref.ref_opt_coins(coins, amount)

    @given(st.lists(st.integers(min_value=2, max_value=60),
                    min_size=1, max_size=5),
           st.integers(min_value=0, max_value=400))
    @settings(max_examples=100, deadline=None)
    def test_opt_never_exceeds_greedy(self, extras, amount):
        coins = CoinSystem([1, *extras])
        assert opt_count(coins, amount) <= greedy_count(coins, amount)


class TestOrderliness:
    def test_known_non_orderly(self):
        verdict = is_orderly([1, 3, 4])
        assert not verdict.orderly
        assert verdict.counterexample == 6
        assert opt_count([1, 3, 4], 6) < greedy_count([1, 3, 4], 6)

    def test_known_orderly(self):
        assert is_orderly([1, 2, 5]).orderly
        assert is_orderly([1, 5, 10, 25]).orderly
        assert is_orderly([1]).orderly

    def test_repunit_systems_orderly(self):
        for b in range(2, 8):
            for k in range(1, 6):
                verdict = is_orderly(repunit_coins(b, k))
                assert verdict.orderly, (b, k)
                assert verdict.counterexample is None

    def test_orderly_despite_a_non_orderly_prefix(self):
        # (1, 2, 12, 13) fails at 24 = 12 + 12, but the coin 24 mends it
        assert not is_orderly([1, 2, 12, 13]).orderly
        assert is_orderly([1, 2, 12, 13, 24]) == (True, None)

    def test_counterexample_is_the_smallest(self):
        # a failing prefix need not fail at the smallest amount, nor at one
        # where the whole system fails: (1, 7, 10) fails at 14, but in
        # (1, 7, 10, 13) greedy pays 14 = 13 + 1 optimally
        for coins, cx in (([1, 7, 10, 13], 17), ([1, 3, 10, 11], 13),
                          ([1, 4, 6, 9], 8), ([1, 2, 12, 13, 30], 24)):
            assert is_orderly(coins) == (False, cx)
            assert opt_count(coins, cx) < greedy_count(coins, cx)
            assert all(opt_count(coins, m) == greedy_count(coins, m)
                       for m in range(cx))

    def test_counterexample_is_genuine(self):
        for coins in ([1, 3, 4], [1, 5, 8], [1, 4, 6, 9], [1, 10, 25]):
            verdict = is_orderly(coins)
            if not verdict.orderly:
                cx = verdict.counterexample
                assert opt_count(coins, cx) < greedy_count(coins, cx)

    @given(st.lists(st.integers(min_value=2, max_value=30),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_verdict_matches_exhaustive_scan(self, extras):
        coins = CoinSystem([1, *extras])
        top = coins.denominations[-1]
        limit = 2 * top * top  # counterexamples appear below 2*top^2 if at all
        optimal = list(range(limit + 1))
        for c in coins.denominations[1:]:
            for m in range(c, limit + 1):
                if optimal[m - c] + 1 < optimal[m]:
                    optimal[m] = optimal[m - c] + 1
        clean = all(optimal[m] == greedy_count(coins, m)
                    for m in range(1, limit + 1))
        assert is_orderly(coins).orderly == clean


def _bottom_up(b, k, below):
    # the reference: the repunits R_1..R_k below `below`, built bottom up
    # by R <- b*R + 1
    coins, r = [], 1
    while len(coins) < k and r < below:
        coins.append(r)
        r = b * r + 1
    return coins


class TestRepunitWalk:
    def test_walk_equals_the_bottom_up_list_around_each_repunit(self):
        # a at R_j - 1, R_j and R_j + 1 puts the top repunit on, at and past
        # the float log's edge; k below, at and above j cuts it by length
        for b in range(2, 41):
            for j in range(1, 201):
                r_j = (b**j - 1) // (b - 1)
                for a in (r_j - 1, r_j, r_j + 1):
                    for k in (j - 1, j, j + 1):
                        if a >= 1 and k >= 1:
                            assert list(_repunit_walk(b, k, a))[::-1] == \
                                _bottom_up(b, k, a), (b, j, a, k)
        # (b-1)*a = b^j exactly: math.log(2**2955, 2) reads just under 2955
        for j in (2955, 2957):
            assert list(_repunit_walk(2, j + 1, 2**j))[::-1] == \
                _bottom_up(2, j + 1, 2**j)

    def test_unbounded_walk_is_every_repunit(self):
        for b in (2, 3, 10, 10**20):
            assert list(_repunit_walk(b, 30)) == [
                (b**i - 1) // (b - 1) for i in range(30, 0, -1)]

    def test_early_exit_equals_digit_sum(self):
        rng = random.Random(18)
        for _ in range(2000):
            b, k = rng.randint(2, 12), rng.randint(1, 60)
            m = rng.randrange(2 ** rng.randint(1, 220))
            expected = digit_sum(b, k, m)
            assert _greedy_prefix(_repunit_walk(b, k, m + 1), m) == expected
            assert _greedy_prefix(list(_repunit_walk(b, k))[:-1], m) \
                == expected

    def test_walk_stops_where_the_remainder_is_zero(self):
        # 2 * R_n leaves nothing for the n - 1 smaller repunits
        read = []

        def coins():
            for c in _repunit_walk(2, 10**4):
                read.append(c)
                yield c
        assert _greedy_prefix(coins(), 2 * (2**10**4 - 1)) == 2
        assert len(read) == 1


class TestRepunitGreedySum:
    """The single-amount digit sum against the walk, against digit_sum,
    whose loop stays independent of both, and against the min-coin DP."""

    @staticmethod
    def walked(b, k, x):
        return _greedy_prefix(_repunit_walk(b, k, x + 1), x)

    @staticmethod
    def run_structured(rng, bits):
        # alternating runs of 1 and 0 bits, so that 0 bits sit at every
        # distance from the top, and long runs of 1 bits sit above them
        x = pos = 0
        while pos < bits:
            run = rng.randint(1, max(1, bits // rng.choice((2, 4, 8, 32))))
            if rng.random() < 0.5:
                x |= ((1 << run) - 1) << pos
            pos += run
        return x & ((1 << bits) - 1)

    def test_base_two_equals_the_walk_and_digit_sum(self):
        rng = random.Random(21)
        for _ in range(1500):
            bits = rng.choice((rng.randint(1, 12), rng.randint(3, 600)))
            for x in (rng.getrandbits(bits) | 1 << (bits - 1),
                      self.run_structured(rng, bits)):
                # k below, at and far above the bit length
                for k in {1, 2, 3, max(1, bits // 2), bits, bits + 2, 10**6}:
                    s = _repunit_greedy_sum(2, k, x)
                    assert s == self.walked(2, k, x), (x, k)
                    if bits <= 200:
                        assert s == digit_sum(2, k, x), (x, k)

    def test_run_jump_equals_the_walk(self):
        # closed_forms step 7 on amounts with long runs of 1 bits, near
        # 2^j, or whose probes x + s carry far up a run of 1 bits
        rng = random.Random(24)
        count = 0
        for _ in range(8000):
            bits = rng.randint(20, 120)
            low = rng.randint(0, 12)
            run = ((1 << bits) - 1) >> low << low
            guard = rng.randint(18, 118)
            above = rng.getrandbits(119 - guard) << (guard + 1)
            for x in (rng.getrandbits(bits),
                      (1 << bits) - rng.randint(1, 3 * bits),
                      run | rng.getrandbits(low),
                      # bits below the 0 bit at guard all 1 but a few at
                      # the bottom, so that x + s carries into it
                      above | (1 << guard) - 1 - rng.randint(0, 3)):
                k = rng.choice((rng.randint(1, 120), x.bit_length(),
                                x.bit_length() + 1))
                assert _repunit_greedy_sum(2, k, x) == self.walked(2, k, x), \
                    (x, k)
                count += 1
        assert count >= 30000

    def test_around_each_base_two_repunit(self):
        for j in range(1, 400):
            r_j = 2**j - 1
            for x in (r_j - 1, r_j, r_j + 1, 2 * r_j):
                for k in {max(1, j - 1), j, j + 1, 10**6}:
                    s = _repunit_greedy_sum(2, k, x)
                    assert s == self.walked(2, k, x) == digit_sum(2, k, x), \
                        (j, x, k)

    def test_base_two_equals_the_min_coin_dp(self):
        # optimality itself, not agreement with another greedy: the DP
        # over the literal coins 2^i - 1 for every amount below 4096
        for k in range(1, 14):
            dp = _opt_counts_upto([2**i - 1 for i in range(1, k + 1)], 4095)
            for x, opt in enumerate(dp):
                assert _repunit_greedy_sum(2, k, x) == opt, (k, x)

    def test_base_two_answer_is_the_least_passing_s(self):
        # closed_forms step 7 read directly: s passes the popcount test
        # and s - 1 fails it, on 10^5-bit amounts below 2^k
        rng = random.Random(27)
        for _ in range(20):
            for x in (rng.getrandbits(10**5),
                      self.run_structured(rng, 10**5)):
                s = _repunit_greedy_sum(2, 10**5 + 1, x)
                assert (x + s).bit_count() <= s, x
                assert s == 0 or (x + s - 1).bit_count() > s - 1, x


class TestGreedyPresentation:
    def test_digits_and_value(self):
        pres = greedy_presentation(2, 3, 11)
        assert pres.digits == (1, 1, 1)  # 1 + 3 + 7
        assert pres.value() == 11
        assert digit_sum(2, 3, 11) == 3

    def test_zero(self):
        assert greedy_presentation(3, 2, 0).digits == (0, 0)

    def test_long_presentation_of_a_small_amount(self):
        # only the repunits up to M are divided by, whatever k is
        coins = repunit_coins(2, 20)
        started = time.perf_counter()
        for m in (0, 1, 5, 12, 100, 1000):
            assert digit_sum(2, 10**5, m) == greedy_count(coins, m)
        assert time.perf_counter() - started < 5.0

    def test_digit_sum_does_not_grow_with_k(self):
        # 5 = 3 + 1 + 1 over R_1, R_2: no vector of k digits is built
        started = time.perf_counter()
        assert digit_sum(2, 10**12, 5) == 3
        assert time.perf_counter() - started < 0.1

    def test_value_round_trip(self):
        for b, k in [(2, 3), (3, 4), (5, 2), (4, 1)]:
            for m in range(0, 300):
                assert greedy_presentation(b, k, m).value() == m

    def test_digit_constraints_hold(self):
        # non-top digits stay <= b and a digit b above position 1 zeroes
        # everything below it
        for b, k in [(2, 4), (3, 3), (5, 3)]:
            for m in range(0, 500):
                digits = greedy_presentation(b, k, m).digits
                assert all(x <= b for x in digits[:-1])
                for i in range(1, k - 1):
                    if digits[i] == b:
                        assert not any(digits[:i])

    def test_top_digit_formula(self):
        for b, k in [(2, 3), (3, 4), (5, 2)]:
            top_coin = (b**k - 1) // (b - 1)
            for m in range(0, 400):
                digits = greedy_presentation(b, k, m).digits
                assert digits[-1] == (b - 1) * m // (b**k - 1), (b, k, m)
                assert digits[-1] == m // top_coin

    def test_invalid_vectors_rejected(self):
        with pytest.raises(InvalidParamsError):
            GreedyPresentation(2, 3, (3, 0, 0))  # non-top digit > b
        with pytest.raises(InvalidParamsError):
            GreedyPresentation(2, 3, (1, 2, 0))  # digit b with lower nonzero
        with pytest.raises(InvalidParamsError):
            GreedyPresentation(2, 3, (0, 0))  # wrong length
        with pytest.raises(InvalidParamsError):
            # top digit not the greedy quotient; the non-top rule refuses it
            GreedyPresentation(2, 2, (5, 0))

    def test_refusal_names_the_first_bad_position(self):
        zeros = (0,) * 10**4
        with pytest.raises(InvalidParamsError, match="position 3 forces"):
            GreedyPresentation(2, 4, (1, 0, 2, 0))
        with pytest.raises(InvalidParamsError, match="position 4 forces"):
            GreedyPresentation(2, 5, (0, 2, 0, 2, 0))
        with pytest.raises(InvalidParamsError, match="got -1"):
            GreedyPresentation(2, 10**4 + 2, (1, *zeros, -1))
        with pytest.raises(InvalidParamsError, match="got 0.5"):
            GreedyPresentation(2, 10**4 + 2, (*zeros, 0.5, 1))
        # a list is taken and kept as a tuple
        assert GreedyPresentation(2, 2, [1, 1]).digits == (1, 1)

    def test_rules_imply_the_top_digit(self):
        # every vector that passes the rules is the greedy presentation of
        # its value, so its top digit is value // R_k with no rule for it
        passed = 0
        for b in range(2, 6):
            for k in range(1, 6):
                top_coin = (b**k - 1) // (b - 1)
                for lower in itertools.product(range(b + 1), repeat=k - 1):
                    for top in range(4):
                        try:
                            pres = GreedyPresentation(b, k, (*lower, top))
                        except InvalidParamsError:
                            continue
                        passed += 1
                        assert top == pres.value() // top_coin, pres
                        assert greedy_presentation(b, k, pres.value()) == pres
        assert passed == 6656

    def test_optimality_via_orderliness(self):
        for b, k in [(2, 4), (3, 3)]:
            coins = repunit_coins(b, k)
            for m in range(0, 200):
                assert sum(greedy_presentation(b, k, m).digits) == \
                    opt_count(coins, m)


class TestColexAndWeight:
    def test_compare_basic(self):
        assert colex_compare((1, 0), (0, 1)) == -1  # higher index decides
        assert colex_compare((0, 1), (1, 0)) == 1
        assert colex_compare((2, 1), (2, 1)) == 0
        assert colex_compare((0, 2, 1), (1, 2, 1)) == -1
        assert colex_compare([0, 2, 1], (1, 2, 1)) == -1  # any sequences
        assert colex_compare((2, 1), [2, 1]) == 0

    def test_compare_length_mismatch(self):
        with pytest.raises(InvalidParamsError):
            colex_compare((1, 2), (1, 2, 3))

    def test_weight_definition(self):
        pres = greedy_presentation(3, 3, 17)  # 17 = 1*13 + 1*4 + 0
        assert pres.digits == (0, 1, 1)
        assert weight(pres) == 3**2 * 1 + 3**3 * 1

    def test_weight_reads_only_nonzero_digits(self):
        # 5 = 3 + 1 + 1: digits (2, 1, 0, ...), so 2*2 + 1*4, whatever k is
        started = time.perf_counter()
        assert weight(greedy_presentation(2, 2 * 10**4, 5)) == 8
        assert time.perf_counter() - started < 0.2

    def test_colex_of_values_orders_weights(self):
        # exhaustive small sweep of the monotonicity the formulas rely on
        for b, k in [(2, 3), (3, 3), (4, 2)]:
            entries = [greedy_presentation(b, k, m) for m in range(400)]
            entries.sort(key=lambda p: tuple(reversed(p.digits)))
            weights = [weight(p) for p in entries]
            assert weights == sorted(weights)
