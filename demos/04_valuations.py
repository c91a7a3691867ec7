"""
Two valuations and what they count
==================================

A valuation on a finite distributive lattice is pinned down by its value
at bottom and on the join-irreducibles.  Assigning 1 to every
join-irreducible gives the classical characteristic; assigning 1 only to
the idempotent ones gives a valuation that counts satisfying assignments.
"""

from nmlogic import (
    AssignmentSpace, Variant, build, chi_plus_by_counting, count_models,
    euler_char, evaluate, idempotent_euler_char, idempotent_euler_spec, parse,
)

one = build(1, Variant.NM)

# The separating example: a join-irreducible element that no assignment
# can make true.  The classical characteristic still sees it.
alpha = parse("(x1 <-> ~x1)^2 & x1")
a = one.element_of(alpha)
print("classical value :", euler_char(one, a))
print("idempotent value:", idempotent_euler_char(one, a))
print("three-valued models:", count_models(alpha, 1, AssignmentSpace.THREE))

# For every formula, the idempotent valuation equals the number of
# satisfying assignments over {0, 1/2, 1}; on the fixpoint-free variant it
# counts Boolean assignments instead.
for text in ("x1", "x1 | ~x1", "~x1 -> x1", "1"):
    f = parse(text)
    print(f"{text!r:14}  value {idempotent_euler_char(one, one.element_of(f))}"
          f"  models {count_models(f, 1, AssignmentSpace.THREE)}")

two_valued = build(1, Variant.NM_MINUS)
f = parse("x1 | ~x1")
print("fixpoint-free excluded middle:",
      idempotent_euler_char(two_valued, two_valued.element_of(f)),
      "=", count_models(f, 1, AssignmentSpace.TWO), "Boolean models")

# evaluate values the whole lattice at once, one entry per element id.  The
# same numbers also fall out of pure order theory: count the minimal
# idempotent join-irreducibles below each element.
values = evaluate(one, idempotent_euler_spec(one))
assert all(values[x] == chi_plus_by_counting(one, x) for x in one.element_ids())
print("weight route and counting route agree on all", one.size, "elements")

# Rendered as the 4x4 product grid, the fixpoint-free labels form the
# familiar diamond (rank by rank, bottom last):
coords = {x: two_valued.vector(x)[1:3] for x in two_valued.element_ids()}
labels = evaluate(two_valued, idempotent_euler_spec(two_valued))
for rank in range(6, -1, -1):
    row = [labels[x] for x, (i, j) in sorted(coords.items(), key=lambda kv: kv[1])
           if i + j == rank]
    print("rank", rank, ":", row)
