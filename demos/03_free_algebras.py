"""
Free algebras as truth-vector closures
======================================

The free n-generated algebra is materialised by closing the projections
(together with top and bottom) under the four operations, pointwise over
the generic assignment grid.  Elements are deduplicated truth vectors.
"""

from nmlogic import ElementCapExceeded, Variant, build, parse

one = build(1, Variant.NM)
print("one generator, with fixpoint   :", one.size, "elements")
print("one generator, fixpoint-free   :", build(1, Variant.NM_MINUS).size, "elements")
print("zero generators                :", build(0, Variant.NM).size, "elements")

# Each element is a vector over the grid; the projection is the identity.
print("bottom:", one.vector(one.bottom_id))
print("top   :", one.vector(one.top_id))
print("x1    :", one.vector(one.element_of(parse("x1"))))

# Annotations: join-irreducible and idempotent elements.
print("join-irreducibles :", list(one.join_irreducible_ids))
print("idempotents       :", list(one.idempotent_ids))
print("minimal idempotent join-irreducibles:", list(one.minimal_idempotent_ji_ids))

# The closure remembers how it found each element, so every id has a
# defining formula.
a = one.element_of(parse("(x1 <-> ~x1)^2 & x1"))
print("element", a, "vector", one.vector(a))
print("one of its definitions: id", a, "=", end=" ")
from nmlogic import format_formula
print(format_formula(one.representative_formula(a)))

# Two generators explode combinatorially; the cap turns that into a
# clean error instead of an exhausted machine.
try:
    build(2, Variant.NM, element_cap=20000)
except ElementCapExceeded as err:
    print("two generators:", err)
