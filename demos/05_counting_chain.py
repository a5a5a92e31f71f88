#!/usr/bin/env python3
"""The counting chain: neighborhood unions <= subspaces <= partitions.

For any cut, the number of distinct neighborhood unions is at most the
number of subspaces of a cut-rank-dimensional GF(2) space (the Galois
number), which in turn is tied to set-partition counts (Bell numbers).
This script tabulates the sequences and audits the per-cut inequality on a
random graph, cut by cut of its optimal trees.
"""

from widthlab import (
    bell,
    bell_asymptotic_check,
    boolean_row_space_size,
    booleanwidth,
    cut_matrix,
    cut_rank,
    galois_number,
    gaussian_binomial,
    log2_int,
    rankwidth,
    render_table,
    sample_gnp_half,
    tree_cuts,
)


def main():
    print("r, Gaussian binomials [r choose k]_2, Galois number G_r, Bell B_r:")
    for r in range(8):
        row = [gaussian_binomial(r, k) for k in range(r + 1)]
        print(f"  r={r}: {row}  G_{r}={galois_number(r)}  B_{r}={bell(r)}")

    g = sample_gnp_half(9, 31)
    rw_res = rankwidth(g)
    bw_res = booleanwidth(g)
    rw = int(rw_res.value)
    print(f"\nG(9,1/2) seed 31: rankwidth {rw}, booleanwidth {bw_res.value:.6f}")
    print(f"log2 G_rw = {log2_int(galois_number(rw)):.6f} (upper bounds booleanwidth)")

    print("\nper-cut audit on the rankwidth-optimal tree:")
    for cut in tree_cuts(rw_res.witness_tree):
        unions = boolean_row_space_size(cut_matrix(g, cut)).count
        r = cut_rank(g, cut)
        print(f"  X={cut.members}: {unions} unions <= G_{r} = {galois_number(r)}")

    print("\nBell growth against its n*log2(n) envelope:")
    print(render_table(bell_asymptotic_check(12)), end="")


if __name__ == "__main__":
    main()
