"""Closed formulas for the geometric-progression-plus-drift generators.

The family fixes a least generator a and appends terms b^i * a + R_i * d
where R_i = (b^i - 1) / (b - 1).  For every a >= 2 and k >= 1 the
Frobenius number admits an exact closed evaluation that never touches the
residue graph, so it scales to generators with hundreds of digits.
"""
import time

from apery import (
    FamilyParams,
    apery_set,
    build_generators,
    frobenius_closed,
    frobenius_from_apery,
    genus_closed,
    genus_from_apery,
    report_closed,
    repunit_params,
    repunit_general_frobenius,
    repunit_general_genus,
)

p = FamilyParams(a=7, b=3, d=2, k=2)
gens = build_generators(p)
print(f"parameters a={p.a} b={p.b} d={p.d} k={p.k}")
print(f"generators: {gens.elements}")

closed_f, closed_g = frobenius_closed(p), genus_closed(p)
ape = apery_set(gens)
oracle_f, oracle_g = frobenius_from_apery(ape), genus_from_apery(ape)
print(f"closed form: F={closed_f} g={closed_g}")
print(f"oracle:      F={oracle_f} g={oracle_g}")
assert (closed_f, closed_g) == (oracle_f, oracle_g)

# the formulas need no bound tying a to k: here a = 3 < k - 1 = 5
p = FamilyParams(a=3, b=2, d=2, k=6)
ape = apery_set(build_generators(p))
print(f"\na={p.a} k={p.k}: closed F={frobenius_closed(p)} "
      f"g={genus_closed(p)}, oracle F={frobenius_from_apery(ape)} "
      f"g={genus_from_apery(ape)}")
assert (frobenius_closed(p), genus_closed(p)) == \
    (frobenius_from_apery(ape), genus_from_apery(ape))

# when a is itself a repunit (b^n - 1)/(b - 1) and k = n - 1, the
# remaining digit sums telescope and the whole report is closed form,
# including the pseudo-Frobenius set
p = repunit_params(b=3, n=2, d=1)
print(f"\nrepunit specialization b=3 n=2: generators "
      f"{build_generators(p).elements}")
print(f"F = {repunit_general_frobenius(3, 2, 1)}, "
      f"g = {repunit_general_genus(3, 2, 1)}")

report = report_closed(p)
print(f"report_closed: F={report.frobenius} g={report.genus} "
      f"t={report.type} pf={report.pf}")

# a parameter choice far beyond any sieve or shortest-path computation
big = repunit_params(b=10, n=40, d=7)
started = time.perf_counter()
report = report_closed(big)
elapsed = time.perf_counter() - started
print(f"\nb=10 n=40 d=7 (a has {len(str(big.a))} digits)")
print(f"Frobenius number has {len(str(report.frobenius))} digits, "
      f"type {report.type}, computed in {elapsed * 1000:.1f} ms")
print(f"F = {report.frobenius}")
