"""Exhaustive minimal-vertex searches and the summary table.

Run:  python3 demos/minimal_vertex_search.py
"""

from spheremap import (
    degree,
    enumerate_spheres,
    exists_labeling,
    lambda_search,
    lambda_table,
)


def main() -> None:
    print("-- triangulated 2-spheres per vertex count ----------------------")
    for v in range(4, 11):
        print(f"v = {v:2d}: {len(list(enumerate_spheres(2, v))):3d} classes")
    print()

    print("-- witness or certified absence, class by class ------------------")
    for v in (6, 7, 8):
        hits = 0
        for K in enumerate_spheres(2, v):
            if exists_labeling(K, 3) is not None:
                hits += 1
        print(f"v = {v}: {hits} classes admit a degree-3 coloring")
    print()

    print("-- minimal vertex counts by exhaustive search --------------------")
    for n, d, v_max in [(1, 3, 12), (2, 2, 10), (2, 3, 10), (2, 4, 10)]:
        result = lambda_search(n, d, v_max)
        where = (f"lambda = {result.lambda_value}"
                 if result.found else result.status)
        print(f"n={n} d={d} (v <= {v_max}): {where}  "
              f"[{result.triangulations_examined} triangulations, "
              f"{result.labelings_examined} partial colorings]")
        if result.found:
            assert degree(result.witness).degree == d  # witnesses re-verify
    print()

    print("-- table: exact values, bounded searches, generator bounds -------")
    table = lambda_table([
        {"n": 1, "d": 4, "v_max": 12},
        {"n": 2, "d": 4, "v_max": 10},
        {"n": 5, "d": 2},
        {"n": 3, "d": 7},
    ])
    for row in table.rows:
        print(f"n={row.n} d={row.d}: lambda {row.lambda_value} "
              f"({row.status}; lambda/|d| = {row.ratio_over_d}) -- {row.note}")


if __name__ == "__main__":
    main()
