"""Saturation reports of the constructions: ``is_induced_saturated`` on every
family that ``certified_bounds`` may try ({∅}, ∅ plus the singletons, the X
and Y constructions, each wedge construction, and the complement of each)
at n = 3..10, against each of the 17 isomorphism classes of
``catalog_small(5)``.  Prints one JSON line per case, with no timing, so
two checkouts that agree print the same lines.  Works on any checkout:

    PYTHONPATH=<checkout>/src python3 tools/saturation.py [--n 3 10]
"""

from __future__ import annotations

import argparse
import json

from posat import (
    SetFamily,
    catalog_small,
    complement_family,
    is_induced_saturated,
    isomorphism_classes,
    wedge_upper_family,
    x_upper_family,
    y_upper_family,
)


def constructions(n: int) -> list[tuple[str, SetFamily]]:
    """(kind, family) for every construction at n >= 3, named as
    ``certified_bounds`` names it."""
    named = [("empty", SetFamily.of(n, [0])), ("star", SetFamily.of(n, [0] + [1 << j for j in range(n)])),
             ("x_upper", x_upper_family(n)), ("y_upper", y_upper_family(n))]
    named += [(f"wedge_upper:{ell}", wedge_upper_family(n, ell)) for ell in range(2, n - 1)]
    return named + [(f"complement:{kind}", complement_family(F)) for kind, F in named]


def cases(low: int, high: int):
    """One record per (n, construction, poset), n from ``low`` to ``high``."""
    classes = isomorphism_classes(catalog_small(5))
    for n in range(low, high + 1):
        for kind, F in constructions(n):
            for P in classes:
                report = is_induced_saturated(F, [P])
                yield {"n": n, "family": kind, "poset": P.name, "saturated": report.saturated,
                       "forbidden_copy": report.forbidden_copy, "addable": report.addable}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs=2, default=(3, 10), metavar=("LOW", "HIGH"), help="ground-set sizes")
    args = ap.parse_args()
    for record in cases(*args.n):
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
