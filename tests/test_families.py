"""Named family constructors: resolved parameters, bounds, and coherence
between overlapping families."""
import time
from math import gcd

import pytest

from apery import (
    FAMILY_NAMES,
    FamilyParams,
    FamilySpec,
    InvalidParamsError,
    apery_set,
    build_generators,
    catalog,
    frobenius_closed,
    frobenius_from_apery,
    genus_closed,
    genus_from_apery,
    gu_ze,
    gu_ze_tang,
    liu_xin,
    mersenne,
    repunit,
    resolve,
    song_gt,
    thabit,
    thabit_base_b,
)
from apery.closed_forms import evaluate

import family_ref


class TestResolutions:
    def test_mersenne(self):
        p = mersenne(3)
        assert (p.a, p.b, p.d, p.k) == (7, 2, 1, 2)
        assert build_generators(p).elements == (7, 15, 31)

    def test_thabit(self):
        p = thabit(1)
        assert (p.a, p.b, p.d, p.k) == (5, 2, 1, 2)
        assert build_generators(p).elements == (5, 11, 23)

    def test_repunit(self):
        p = repunit(3, 2)
        assert (p.a, p.b, p.d, p.k) == (4, 3, 1, 1)
        assert build_generators(p).elements == (4, 13)

    def test_gu_ze_tang(self):
        p = gu_ze_tang(n=2, m=2)
        assert (p.a, p.b, p.d, p.k) == ((2**2 - 1) * 4 - 1, 2, 1, 3)

    def test_song_gt_delta_branches(self):
        assert song_gt(n=0, m=2).k == 1          # delta = 1
        assert song_gt(n=3, m=2).k == 3 + 2      # delta = m
        assert song_gt(n=1, m=3).k == 1 + 2      # delta = m - 1
        p = song_gt(n=2, m=2)
        assert p.a == (2**2 + 1) * 2**2 - (2**2 - 1)
        assert p.d == 3

    def test_liu_xin(self):
        p = liu_xin(m=2, k=3)
        assert (p.a, p.b, p.d, p.k) == (2 * 7 + 3, 2, 1, 3)
        assert liu_xin(m=1, k=4, d=3).d == 3

    def test_gu_ze(self):
        p = gu_ze(b=3, n=1)
        assert (p.a, p.b, p.d, p.k) == (9 + 1, 3, 1, 2)

    def test_thabit_base_b(self):
        p = thabit_base_b(b=3, n=1)
        assert (p.a, p.b, p.d, p.k) == (4 * 3 - 1, 3, 2, 2)


class TestBounds:
    def test_each_family_rejects_low_parameters(self):
        with pytest.raises(InvalidParamsError):
            mersenne(1)
        with pytest.raises(InvalidParamsError):
            thabit(0)
        with pytest.raises(InvalidParamsError):
            gu_ze_tang(n=0, m=2)
        with pytest.raises(InvalidParamsError):
            gu_ze_tang(n=1, m=1)
        with pytest.raises(InvalidParamsError):
            gu_ze_tang(n=1, m=3)  # m must stay <= 2^n = 2
        with pytest.raises(InvalidParamsError):
            song_gt(n=-1, m=2)
        with pytest.raises(InvalidParamsError):
            song_gt(n=1, m=1)
        with pytest.raises(InvalidParamsError):
            liu_xin(m=0, k=3)
        with pytest.raises(InvalidParamsError):
            liu_xin(m=1, k=2)
        with pytest.raises(InvalidParamsError):
            repunit(b=1, n=2)
        with pytest.raises(InvalidParamsError):
            repunit(b=2, n=1)
        with pytest.raises(InvalidParamsError):
            gu_ze(b=1, n=1)
        with pytest.raises(InvalidParamsError):
            thabit_base_b(b=2, n=-1)

    def test_small_parameters_support_closed_forms(self):
        # every family instance in this range satisfies gcd(a, d) = 1, so
        # the closed forms apply throughout
        instances = []
        instances += [mersenne(n) for n in range(2, 7)]
        instances += [thabit(n) for n in range(1, 7)]
        instances += [gu_ze_tang(n=n, m=m) for n in range(1, 5)
                      for m in range(2, 5) if m <= 2**n]
        instances += [song_gt(n=n, m=m) for n in range(0, 5)
                      for m in range(2, 5)]
        instances += [liu_xin(m=m, k=k) for m in range(1, 5)
                      for k in range(3, 6)]
        instances += [repunit(b=b, n=n) for b in range(2, 6)
                      for n in range(2, 7)]
        instances += [gu_ze(b=b, n=n) for b in range(2, 6)
                      for n in range(0, 5)]
        instances += [thabit_base_b(b=b, n=n) for b in range(2, 6)
                      for n in range(0, 5)]
        for p in instances:
            assert gcd(p.a, p.d) == 1
            frobenius_closed(p)  # must not raise


class TestCoherence:
    def test_mersenne_equals_repunit_base_two(self):
        for n in range(2, 8):
            assert mersenne(n) == repunit(2, n)

    def test_thabit_base_two_equals_thabit(self):
        for n in range(1, 8):
            assert thabit_base_b(2, n) == thabit(n)

    def test_family_values_against_oracle(self):
        for p in [mersenne(4), thabit(2), gu_ze_tang(n=2, m=2),
                  song_gt(n=1, m=2), liu_xin(m=1, k=3), repunit(3, 3),
                  gu_ze(b=2, n=1), thabit_base_b(b=3, n=1)]:
            ape = apery_set(build_generators(p))
            assert frobenius_closed(p) == frobenius_from_apery(ape), p

    def test_mersenne_known_frobenius_shape(self):
        for n in range(2, 8):
            assert frobenius_closed(mersenne(n)) == 2**(2 * n) - 2**n - 1

    def test_thabit_frozen(self):
        assert frobenius_closed(thabit(1)) == 29
        assert genus_closed(thabit(1)) == 16


class TestNamedFamilyFrobenius:
    """family_ref's F expressions, derived by hand from the greedy digits
    of a - 1, against the oracle at small a and the engine up to m = 20000.
    Song members with m <= n are left out (see song_gt_frobenius)."""

    @staticmethod
    def oracle_frobenius(p):
        return frobenius_from_apery(apery_set(build_generators(p)))

    def test_gu_ze_tang_against_the_oracle(self):
        cases = [(n, m) for n in range(1, 6) for m in range(2, 2**n + 1)
                 if (2**m - 1) * 2**n <= 5000]
        assert len(cases) == 24
        for n, m in cases:
            assert family_ref.gu_ze_tang_frobenius(n, m) == \
                self.oracle_frobenius(gu_ze_tang(n, m)), (n, m)

    def test_song_gt_against_the_oracle(self):
        cases = [(n, m) for n in range(3, 6) for m in range(n + 1, 11)
                 if (2**m + 1) * 2**n - (2**m - 1) <= 5000]
        assert len(cases) == 12
        for n, m in cases:
            assert family_ref.song_gt_frobenius(n, m) == \
                self.oracle_frobenius(song_gt(n, m)), (n, m)

    def test_against_the_engine(self):
        for n in range(1, 9):
            for m in range(2, min(2**n, 60) + 1):
                assert family_ref.gu_ze_tang_frobenius(n, m) == \
                    frobenius_closed(gu_ze_tang(n, m)), (n, m)
        for n in range(3, 40):
            for m in range(n + 1, 80):
                assert family_ref.song_gt_frobenius(n, m) == \
                    frobenius_closed(song_gt(n, m)), (n, m)

    def test_engine_at_m_20000_in_under_50_ms(self):
        # the greedy remainder of a - 1 reaches zero only near R_1, so a
        # walk of the repunits alone divides by one repunit per bit of a
        for family, expression, ns in (
                (gu_ze_tang, family_ref.gu_ze_tang_frobenius, (15, 20)),
                (song_gt, family_ref.song_gt_frobenius, (3, 10, 20))):
            for n in ns:
                p = family(n, 20000)
                started = time.perf_counter()
                f = evaluate(p, "closed").frobenius
                assert time.perf_counter() - started < 0.05, (family, n)
                assert f == expression(n, 20000), (family, n)


class TestSpecAndCatalog:
    def test_resolve_matches_direct_calls(self):
        pairs = [
            (FamilySpec("mersenne", {"n": 3}), mersenne(3)),
            (FamilySpec("thabit", {"n": 2}), thabit(2)),
            (FamilySpec("gu-ze-tang", {"n": 2, "m": 3}),
             gu_ze_tang(n=2, m=3)),
            (FamilySpec("song-gt", {"n": 1, "m": 2}), song_gt(n=1, m=2)),
            (FamilySpec("liu-xin", {"m": 2, "k": 4}), liu_xin(m=2, k=4)),
            (FamilySpec("liu-xin", {"m": 2, "k": 4, "d": 5}),
             liu_xin(m=2, k=4, d=5)),
            (FamilySpec("repunit", {"b": 4, "n": 3}), repunit(4, 3)),
            (FamilySpec("gu-ze", {"b": 3, "n": 2}), gu_ze(b=3, n=2)),
            (FamilySpec("thabit-base-b", {"b": 4, "n": 1}),
             thabit_base_b(b=4, n=1)),
        ]
        for spec, expected in pairs:
            assert resolve(spec) == expected

    def test_spec_validation(self):
        with pytest.raises(InvalidParamsError):
            FamilySpec("fibonacci", {"n": 3})
        with pytest.raises(InvalidParamsError):
            FamilySpec("mersenne", {})  # n missing
        with pytest.raises(InvalidParamsError):
            FamilySpec("mersenne", {"n": 3, "m": 1})  # m not accepted
        FamilySpec("liu-xin", {"m": 1, "k": 3})  # d optional

    def test_catalog_shape(self):
        entries = catalog()
        assert [e["name"] for e in entries] == list(FAMILY_NAMES)
        assert len(entries) == 8
        song = next(e for e in entries if e["name"] == "song-gt")
        assert len(song["delta"]) == 3
        liu = next(e for e in entries if e["name"] == "liu-xin")
        d_param = next(p for p in liu["params"] if p["name"] == "d")
        assert d_param["default"] == 1

    def test_catalog_is_a_copy(self):
        catalog()[0]["params"].clear()
        assert catalog()[0]["params"]
        # every level is copied, song-gt's delta branches too
        catalog()[3]["delta"][0]["value"] = "x"
        assert catalog()[3]["delta"][0]["value"] == "1"


# the refusal texts, byte for byte: name and key checks run when a spec is
# built, value and bound checks in resolve
KNOWN = ("mersenne, thabit, gu-ze-tang, song-gt, liu-xin, repunit, gu-ze, "
         "thabit-base-b")
SPEC_REFUSALS = [
    ("fibonacci", {"n": 3}, f"unknown family 'fibonacci'; known: {KNOWN}"),
    *((name, {}, f"family {name} missing: {keys}") for name, keys in (
        ("mersenne", "n"), ("thabit", "n"), ("gu-ze-tang", "m, n"),
        ("song-gt", "m, n"), ("liu-xin", "k, m"), ("repunit", "b, n"),
        ("gu-ze", "b, n"), ("thabit-base-b", "b, n"))),
    *((name, {**floors, "x": 1}, f"family {name} does not take: x")
      for name, floors in (
          ("mersenne", {"n": 2}), ("thabit", {"n": 1}),
          ("gu-ze-tang", {"n": 1, "m": 2}), ("song-gt", {"n": 0, "m": 2}),
          ("liu-xin", {"m": 1, "k": 3}), ("repunit", {"b": 2, "n": 2}),
          ("gu-ze", {"b": 2, "n": 0}), ("thabit-base-b", {"b": 2, "n": 0}))),
    ("liu-xin", {"m": 1, "k": 3, "zz": 1, "aa": 2},
     "family liu-xin does not take: aa, zz"),
    # 60 characters are shown in full; a longer name or key shows its start
    ("f" * 60, {"n": 3}, f"unknown family '{'f' * 60}'; known: {KNOWN}"),
    ("thabit", {"n": 3, "k" * 60: 1},
     f"family thabit does not take: {'k' * 60}"),
]
RESOLVE_REFUSALS = [
    ("mersenne", {"n": 1}, "need mersenne n >= 2, got 1"),
    ("thabit", {"n": 0}, "need thabit n >= 1, got 0"),
    ("gu-ze-tang", {"n": 0, "m": 2}, "need gu-ze-tang n >= 1, got 0"),
    ("gu-ze-tang", {"n": 1, "m": 1}, "need gu-ze-tang m >= 2, got 1"),
    ("gu-ze-tang", {"n": 2, "m": 5},
     "gu-ze-tang needs 2 <= m <= 2^n = 4, got m=5"),
    ("song-gt", {"n": -1, "m": 2}, "need song-gt n >= 0, got -1"),
    ("song-gt", {"n": 0, "m": 1}, "need song-gt m >= 2, got 1"),
    ("liu-xin", {"m": 0, "k": 3}, "need liu-xin m >= 1, got 0"),
    ("liu-xin", {"m": 1, "k": 2}, "need liu-xin k >= 3, got 2"),
    ("liu-xin", {"m": 1, "k": 3, "d": 0}, "need liu-xin d >= 1, got 0"),
    ("liu-xin", {"m": 1, "k": 3, "d": 5}, "gcd(a, d) = gcd(10, 5) != 1"),
    ("repunit", {"b": 1, "n": 2}, "need repunit b >= 2, got 1"),
    ("repunit", {"b": 2, "n": 1}, "need repunit n >= 2, got 1"),
    ("gu-ze", {"b": 1, "n": 0}, "need gu-ze b >= 2, got 1"),
    ("gu-ze", {"b": 2, "n": -1}, "need gu-ze n >= 0, got -1"),
    ("thabit-base-b", {"b": 1, "n": 0}, "need thabit-base-b b >= 2, got 1"),
    ("thabit-base-b", {"b": 2, "n": -1}, "need thabit-base-b n >= 0, got -1"),
]
# below a floor, one field at a time in the order a, b, d, k, then gcd
PARAMS_REFUSALS = [
    ((1, 1, 0, 0), "need a >= 2, got 1"),
    ((2, 1, 0, 0), "need b >= 2, got 1"),
    ((3, 2, 0, 0), "need d >= 1, got 0"),
    ((3, 2, 1, 0), "need k >= 1, got 0"),
    ((4, 2, 2, 1), "gcd(a, d) = gcd(4, 2) != 1"),
]


class TestRefusalTexts:
    @pytest.mark.parametrize("name, params, text", SPEC_REFUSALS)
    def test_spec(self, name, params, text):
        with pytest.raises(InvalidParamsError) as err:
            FamilySpec(name, params)
        assert str(err.value) == text

    @pytest.mark.parametrize("name, params, text", RESOLVE_REFUSALS)
    def test_resolve(self, name, params, text):
        spec = FamilySpec(name, params)  # the names are fine
        with pytest.raises(InvalidParamsError) as err:
            resolve(spec)
        assert str(err.value) == text

    @pytest.mark.parametrize("args, text", PARAMS_REFUSALS)
    def test_family_params(self, args, text):
        with pytest.raises(InvalidParamsError) as err:
            FamilyParams(*args)
        assert str(err.value) == text

    def test_each_bound_in_the_catalog_is_pinned(self):
        pinned = {(name, key) for name, params, text in RESOLVE_REFUSALS
                  for key in params if text.startswith(f"need {name} {key}")}
        assert pinned == {(e["name"], p["name"]) for e in catalog()
                          for p in e["params"]}

    @pytest.mark.parametrize("entry", catalog(), ids=FAMILY_NAMES)
    def test_required_keys_resolve_and_each_names_itself(self, entry):
        required = {p["name"]: p["min"] for p in entry["params"]
                    if "default" not in p}
        p = resolve(FamilySpec(entry["name"], required))
        assert all(type(v) is int for v in (p.a, p.b, p.d, p.k))
        for key in required:
            fewer = {k: v for k, v in required.items() if k != key}
            with pytest.raises(InvalidParamsError,
                               match=f"missing: {key}$"):
                FamilySpec(entry["name"], fewer)


class TestNamedFamilyGenus:
    """family_ref's genus expressions, derived by hand from sums of greedy
    digit sums, against the oracle at small a and against the engine: its
    digit-sum table for Thabit, its repunit formula for Mersenne."""

    def test_against_the_oracle(self):
        for family, expression, ns in (
                (mersenne, family_ref.mersenne_genus, range(2, 11)),
                (thabit, family_ref.thabit_genus, range(1, 11))):
            for n in ns:
                p = family(n)
                assert expression(n) == \
                    genus_from_apery(apery_set(build_generators(p))), n

    def test_against_the_engine(self):
        for n in range(1, 15):
            assert family_ref.thabit_genus(n) == genus_closed(thabit(n)), n
        for n in (*range(2, 17), 10**4):
            assert family_ref.mersenne_genus(n) == \
                genus_closed(mersenne(n)), n
