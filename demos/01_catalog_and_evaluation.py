"""Tour of the function catalog: building expressions, exact evaluation at
rationals, and certified float evaluation.

Everything in the catalog is a continuous 1-periodic function vanishing at
the integers.  Exact mode returns `fractions.Fraction`; float mode returns a
value with a certified error bound that always contains the true value.
"""

from fractions import Fraction as F

from pathfn import (
    AbsSin,
    Distance,
    ThetaSplice,
    USeries,
    eval_approx,
    eval_exact,
    parse_func_spec,
    psi_zero,
)

print("=== exact evaluation on the rationals ===")
tau2 = USeries(2, Distance())
for x in (F(1, 4), F(1, 3), F(1, 2), F(5, 7)):
    print(f"  takagi_2({x}) = {eval_exact(tau2, x)}")
print("  (1/3 sits on a 2-cycle of the doubling map; the series still sums")
print("   in closed form, no truncation involved)")

print("\n=== the same catalog through the JSON spec format ===")
doc = '{"kind":"sum","terms":[{"kind":"distance"},{"kind":"scale","a":"1","child":{"kind":"distance_power","p":2}}]}'
parsed = parse_func_spec(doc)
print(f"  parsed: {parsed}")
print(f"  equals a*d + b*d^2 with a=b=1 at 1/2: {eval_exact(parsed, F(1, 2))} "
      f"== {eval_exact(psi_zero(1, 1), F(1, 2))}")

print("\n=== certified float mode ===")
for f, x, label in (
    (AbsSin(), 0.5, "|sin(pi x)| at 0.5"),
    (tau2, F(1, 3), "takagi_2 at 1/3"),
    (USeries(2, ThetaSplice(2)), 0.7, "series of the x^2 splice at 0.7"),
):
    v = eval_approx(f, x)
    print(f"  {label}: {v.value:.15f} +- {v.err:.2e}")
print("  bounds cover conversion, libm sine slack, and series tails;")
print("  arguments stay exact rationals all the way down")

print("\n=== series values vanish on the integers ===")
for f in (tau2, USeries(3, Distance()), USeries(2, psi_zero(1, 1))):
    assert eval_exact(f, 0) == 0 == eval_exact(f, 1)
print("  checked exactly for three series functions")

print("\n=== distance-to-integers is the basic generator ===")
d = Distance()
print(f"  d(1/2) = {eval_exact(d, F(1, 2))}, d(7/8) = {eval_exact(d, F(7, 8))}, "
      f"symmetric: d(x) == d(1-x)")
