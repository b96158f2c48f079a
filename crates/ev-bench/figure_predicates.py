#!/usr/bin/env python3
"""Checks the paper's Fig. 5 and Fig. 7 claims on a fresh `experiments` run.

Usage:

    experiments --out DIR fig5 fig7
    python3 crates/ev-bench/figure_predicates.py DIR

Fig. 5: set splitting (SS) selects fewer scenarios than EDP in every row,
and the EDP/SS ratio grows with every row (the gap widens with the
matching size). Fig. 7: SS uses at most 0.3 more scenarios per EID than
EDP in every row. Exits 1 naming every row that breaks a predicate.
Standard library only.
"""

import json
import sys
from pathlib import Path

FIG7_SLACK = 0.3


def columns(path):
    """The (matched, SS, EDP) rows of a two-algorithm figure file."""
    table = json.loads(path.read_text())
    header = table["header"]
    ss, edp = header.index("SS"), header.index("EDP")
    return [(row[0], float(row[ss]), float(row[edp])) for row in table["rows"]]


def fig5_failures(rows):
    failures = []
    previous = None
    for matched, ss, edp in rows:
        if not ss < edp:
            failures.append(f"fig5 @ {matched}: SS {ss:g} is not below EDP {edp:g}")
            continue
        ratio = edp / ss
        if previous is not None and not ratio > previous:
            failures.append(
                f"fig5 @ {matched}: EDP/SS {ratio:.3f} does not grow from {previous:.3f}"
            )
        previous = ratio
    return failures


def fig7_failures(rows):
    return [
        f"fig7 @ {matched}: SS {ss:g} exceeds EDP {edp:g} + {FIG7_SLACK}"
        for matched, ss, edp in rows
        if ss > edp + FIG7_SLACK + 1e-9
    ]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[1])
    fig5 = columns(out / "fig5.json")
    fig7 = columns(out / "fig7.json")
    failures = fig5_failures(fig5) + fig7_failures(fig7)
    for failure in failures:
        print(failure)
    if failures:
        return 1
    print(f"ok: fig5 ({len(fig5)} rows) and fig7 ({len(fig7)} rows) hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
