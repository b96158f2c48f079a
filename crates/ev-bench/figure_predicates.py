#!/usr/bin/env python3
"""Checks the paper's Fig. 5, Fig. 7, Table I and Fig. 11 claims on a fresh
`experiments` run.

Usage:

    experiments --out DIR fig5 fig7 table1 fig11
    python3 crates/ev-bench/figure_predicates.py DIR

Fig. 5: set splitting (SS) selects fewer scenarios than EDP in every row,
and the EDP/SS ratio grows with every row (the gap widens with the
matching size). Fig. 7: SS uses no more scenarios per EID than EDP in
every row. Table I: every SS cell is at least 85 %. Fig. 11: SS at
10 % missed detections is above 80 % in every row, and SS beats EDP in
every cell. Exits 1 naming every cell that breaks a predicate. Standard
library only.
"""

import json
import sys
from pathlib import Path

FIG7_SLACK = 0.0
TABLE1_FLOOR = 85.0
FIG11_FLOOR_AT_10 = 80.0


def columns(path):
    """The (matched, SS, EDP) rows of a two-algorithm figure file."""
    table = json.loads(path.read_text())
    header = table["header"]
    ss, edp = header.index("SS"), header.index("EDP")
    return [(row[0], float(row[ss]), float(row[edp])) for row in table["rows"]]


def table(path):
    """The header and rows of a figure file."""
    data = json.loads(path.read_text())
    return data["header"], data["rows"]


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
        f"fig7 @ {matched}: SS {ss:g} exceeds EDP {edp:g} + {FIG7_SLACK:g}"
        for matched, ss, edp in rows
        if ss > edp + FIG7_SLACK + 1e-9
    ]


def table1_failures(header, rows):
    ss = header.index("SS")
    return [
        f"table1 @ {row[0]}: SS {row[ss]} is below {TABLE1_FLOOR:g}"
        for row in rows
        if not float(row[ss]) >= TABLE1_FLOOR
    ]


def fig11_failures(header, rows):
    failures = []
    at_10 = header.index("SS @10%")
    for row in rows:
        if not float(row[at_10]) > FIG11_FLOOR_AT_10:
            failures.append(
                f"fig11 @ {row[0]}: SS @10% {row[at_10]} is not above {FIG11_FLOOR_AT_10:g}"
            )
        for i, name in enumerate(header):
            if not name.startswith("SS @"):
                continue
            rate = name.removeprefix("SS ")
            edp = header.index(f"EDP {rate}")
            if not float(row[i]) > float(row[edp]):
                failures.append(
                    f"fig11 @ {row[0]}, {rate}: SS {row[i]} does not beat EDP {row[edp]}"
                )
    return failures


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[1])
    fig5 = columns(out / "fig5.json")
    fig7 = columns(out / "fig7.json")
    table1 = table(out / "table1.json")
    fig11 = table(out / "fig11.json")
    failures = (
        fig5_failures(fig5)
        + fig7_failures(fig7)
        + table1_failures(*table1)
        + fig11_failures(*fig11)
    )
    for failure in failures:
        print(failure)
    if failures:
        return 1
    print(
        f"ok: fig5 ({len(fig5)} rows), fig7 ({len(fig7)} rows), "
        f"table1 ({len(table1[1])} rows) and fig11 ({len(fig11[1])} rows) hold"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
