"""
Averaging chains and the exact cancellation identity
====================================================

A chain assigns one fresh block to each element of a growing support set.
Averaging one pick per block gives a convex vector; pinning the kernel to
the union of the blocks gives a functional.  Their pairing telescopes to a
sign, and every computation below is exact rational arithmetic.
"""

from schreier_kit.averaging import (
    SeededBlocks,
    block_average,
    build_chain,
    cancellation_value,
    evaluate,
    evaluate_enumerated,
    self_pairing,
    union_functional,
)
from schreier_kit.finset import FinSet

# The canonical generator draws dyadic blocks [p, 2p-1], each starting at
# the least power of two clearing the level, the previous block, and the
# new element.
chain = build_chain(2, FinSet((3, 5)))
print("blocks:", [str(b) for b in chain.blocks])

# The chain's own functional against its own average collapses to 1 at
# even depth and 0 at odd depth.
for j in range(chain.depth + 1):
    print(f"self-pairing at depth {j}:", self_pairing(chain.prefix(j)))

# Evaluation factorizes across blocks because picks are independent.  The
# brute-force route enumerates all picks and must agree, fraction for
# fraction.
f = union_functional(chain)
v = block_average(chain.prefix(1))
print("factorized:", evaluate(f, v), " enumerated:", evaluate_enumerated(f, v))

# The identity: extend a depth-k chain by one element, pair the extended
# functional against the difference of the two averages, and the value is
# exactly (-1)^k.  No tolerance is involved.
for k in range(3):
    prefix = build_chain(3, FinSet((4, 6, 8))).prefix(k)
    value = cancellation_value(prefix, 9 + k)
    print(f"depth {k}: difference pairing = {value}")

# Any admissible block placement works, not just the dyadic one.  A seeded
# generator draws reproducible random starts, for the chain's blocks and for
# the extension's new block alike; the sign never moves.
seeded = build_chain(2, FinSet((3,)), SeededBlocks(7))
print("seeded blocks:", [str(b) for b in seeded.blocks])
print("seeded value:", cancellation_value(seeded, 6))
