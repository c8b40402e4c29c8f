"""
Truncated kernel matrices and separating witnesses
==================================================

Evaluating the kernel on everything below a truncation gives a 0/1 matrix.
Rows that stay distinct mean the truncation still separates points; the
witness helpers produce the separating sets explicitly.
"""

from schreier_kit.compacta import (
    build_matrix,
    distinguishing_search,
    injectivity_report,
    powers_witness,
    to_csv,
)
from schreier_kit.family import All, Powers
from schreier_kit.finset import FinSet

# Mode "K" runs first-coordinate sets down the rows; mode "L" transposes
# the roles.  Row and column labels are the sets themselves.
m = build_matrix("K", 1, All(), 3, 3)
print(to_csv(m))

# At a deep enough truncation, the second-coordinate rows are pairwise
# distinct: 128 rows against 144 columns, no duplicates.
deep = build_matrix("L", "w", All(), 8, 10)
print("L-mode shape:", deep.shape,
      "all distinct:", injectivity_report(deep).all_distinct)

# Restricting to powers of two changes the picture: whole bundles of rows
# collapse onto each other even though every label fits inside the window.
narrow = build_matrix("K", "w", Powers(2), 64, 128)
rep = injectivity_report(narrow)
print("collision classes on powers of two:")
for cls in rep.collision_classes:
    print("  ", [str(narrow.rows[i]) for i in cls])

# For two distinct admissible sets of powers of two, a stack of dyadic
# intervals always tells them apart.  The kernel evaluates to different
# bits on the witness.
w = powers_witness(FinSet((2, 8)), FinSet((2, 16)))
print("witness for {2,8} vs {2,16}:", w)

# In the other coordinate, a first-fit search over admissible sets finds a
# separator; the default element bound is the larger maximum, which is
# proved to hold the first separator whenever one exists.
sep = distinguishing_search(FinSet((2, 3)), FinSet((2, 4)))
print("separator for {2,3} vs {2,4}:", sep)
