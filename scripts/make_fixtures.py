#!/usr/bin/env python3
"""Regenerate the checked-in fixture files from the programmatic definitions."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hblcert import fixtures
from hblcert.formats import serialize_datum, serialize_presentation


def main() -> None:
    root = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    root.mkdir(exist_ok=True)
    for name, (make_datum, make_pres) in fixtures.ALL_FIXTURES.items():
        (root / f"{name}.datum.json").write_text(serialize_datum(make_datum()))
        (root / f"{name}.presentation.json").write_text(serialize_presentation(make_pres()))
    lines = ["# coordinate lines whose constraints pin the exponents"]
    for v in fixtures.fourmap_r6_forcing_candidates():
        if not v.is_full():
            lines += [" ".join(map(str, row)) for row in v.basis_rows()]
    (root / "r6_forcing.candidates.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote fixtures to {root}")


if __name__ == "__main__":
    main()
