#!/usr/bin/env python3
"""Survey the orbit atlas and admissible design coverages for small towers.

For each parameter point (m, l, k, q) this prints the orbit families with
their sizes, the incidence block matrix, and the coverage values reachable
by single-orbit selections.  Everything is exact; useful for picking
selections before building design files.
"""

import argparse
import sys

from qgdd.atlas import gl_atlas, gl_order
from qgdd.designs import GddSelection, gdd_lambda
from qgdd.incidence import closed_form_matrix
from qgdd.singer import n_orbits_with_stabilizer
from qgdd.subspaces import gaussian_binomial


def survey(m: int, l: int, k: int, q: int) -> None:
    atlas = gl_atlas(m, l, q)
    v = m * l
    print(f"== (m={m}, l={l}, k={k}, q={q}): GF({q})^{v}, "
          f"|GL({m},{q}^{l})| = {gl_order(m, atlas.Q)}")
    print(f"   spread: {(atlas.Q ** m - 1) // (atlas.Q - 1)} groups of dim {l}; "
          f"{gaussian_binomial(v, k, q)} total {k}-subspaces")
    labels = atlas.orbit_labels(k)
    by_ru = {}
    for label in labels:
        if label.kind == "mixed":
            by_ru.setdefault((label.r, atlas.label_u(label)), []).append(label)
    for (r, u), group in sorted(by_ru.items()):
        size = atlas.label_orbit_size(group[0])
        print(f"   r={r} u={u}: {len(group)} orbit(s) of size {size} "
              f"(n = {n_orbits_with_stabilizer(r + 1, u, l, q)})")
    if k <= m:
        print(f"   span-{k} class: single orbit of size "
              f"{atlas.label_orbit_size(labels[-1])}")
    print("   single-orbit coverages:")
    for r, u in sorted(by_ru):
        if r >= 2:
            sel = GddSelection.of({(r, u): 1})
            print(f"     w_({r},{u})=1  ->  lambda = {gdd_lambda(sel, m, l, k, q)}")
    if k <= m:
        sel = GddSelection.of({}, omega_kk=True)
        print(f"     w=1        ->  lambda = {gdd_lambda(sel, m, l, k, q)}")
    A = closed_form_matrix(m, l, k, q)
    print("   incidence block matrix:")
    for label, row in zip(A.row_labels, A.entries):
        print(f"     {label.label_str():>12} | " + " ".join(f"{x:>8}" for x in row))
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", default="2,3,3,2;3,3,3,2;2,4,3,2;3,4,4,2;2,7,3,2",
                        help="semicolon-separated m,l,k,q tuples")
    args = parser.parse_args()
    for chunk in args.points.split(";"):
        m, l, k, q = (int(x) for x in chunk.split(","))
        survey(m, l, k, q)
    return 0


if __name__ == "__main__":
    sys.exit(main())
