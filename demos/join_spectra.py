"""Joins move eigenvalue supports by a fixed shift: see it without guessing.

The join glues every vertex of one graph to every vertex of another. For
the Laplacian, a vertex of the left part keeps its part support, shifted
up by the right part's order, plus a couple of shared values. The package
computes that support from the part alone; here we confirm it against a
full diagonalization of the joined graph.

Run: python3 demos/join_spectra.py
"""

import numpy as np

from qwjoin import (
    decompose,
    disjoint_union,
    eigenvalue_support,
    family,
    graph_matrix,
    join,
    join_params,
    join_support,
)


def main():
    x = disjoint_union(family("C", 4), family("O", 2))  # disconnected on purpose
    y = family("O", 2)
    joined = join(x, y)
    print(f"left part: cycle plus two isolated vertices, order {x.order}")
    print(f"right part: two isolated vertices, order {y.order}")

    params = join_params(x, y, "laplacian")
    print(f"join parameters: m = {params.m}, n = {params.n}")

    for u in (0, 4):  # a cycle vertex, then an isolated one
        from_parts = join_support(x, y, u)
        direct = eigenvalue_support(decompose(graph_matrix(joined, "laplacian")), u)
        print(f"vertex {u}: closed form {np.round(from_parts, 6).tolist()}")
        print(f"          direct      {np.round(direct, 6).tolist()}")

    # adjacency joins need regular parts and produce the quadratic pair
    k6, k2 = family("K", 6), family("K", 2)
    params = join_params(k6, k2, "adjacency")
    print(
        f"K6 v K2 adjacency: degrees {params.k}, {params.ell}, "
        f"new eigenvalues {params.lam_plus}, {params.lam_minus}, {params.root} apart"
    )
    print(f"vertex 0 support: {join_support(k6, k2, 0, matrix='adjacency')}")


if __name__ == "__main__":
    main()
