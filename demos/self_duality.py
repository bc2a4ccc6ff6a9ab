#!/usr/bin/env python3
"""The shift and the coin exchange roles in the trigonometric dual basis.

On the ring Z_{4q} there is a family of vectors, built from the same
exact cos/sin values as the coins, in which the shift acts like a coin
rotation and the sitewise coin acts like a shift.  verify_duality checks
both role-swap identities at every ring site and chirality and returns
the worst residual, which lands at rounding level (and is exactly zero
for q = 1, where every trig value is 0 or +-1).  The residual depends on
q alone: p is a unit mod 4q, so every p reaches the same trig residues.
"""

from iqwalk import QuarterFraction, butterfly_fractions, dual_vector, verify_duality


def main():
    f = QuarterFraction(1, 1)
    print(f"dual vectors at alpha = {f} (entries exact):")
    for n in range(2):
        vec = dual_vector(f, n, "L")
        pairs = [(complex(a), complex(b)) for a, b in vec.amplitudes]
        print(f"  n={n} L: {pairs}")
    print()

    print("worst role-swap residual over all ring sites and chiralities:")
    for f in (QuarterFraction(1, 1), QuarterFraction(1, 3),
              QuarterFraction(3, 5), QuarterFraction(7, 6)):
        res = verify_duality(f)
        print(f"  alpha = {f!s:5s} shift-as-coin {res.shift_as_coin:.3e}  "
              f"coin-as-shift {res.coin_as_shift:.3e}")
    print()

    print("worst residual per q over every alpha = p/(4q), q <= 10:")
    print("  (p is odd and coprime to q, so p*m*n mod 4q reaches the same residue")
    print("   pairs for every p: the residual depends on q alone)")
    for q in range(1, 11):
        fractions = [f for f in butterfly_fractions(10) if f.q == q]
        (worst,) = {verify_duality(f).max() for f in fractions}  # one value per q
        print(f"  q = {q:2d}: {worst:.3e} for all {len(fractions)} numerators p")

if __name__ == "__main__":
    main()
