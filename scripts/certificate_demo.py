#!/usr/bin/env python3
"""End-to-end tour on the shipped examples.

For each fixture: verify the checked-in certificate, rebuild one from
scratch out of the kernel lattice, compare the two induced constants, and
probe the inequality numerically with Gaussian ascent.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hblcert.builder import build_presentation
from hblcert.fixtures import ALL_FIXTURES
from hblcert.lattice import generate_lattice
from hblcert.linalg import span
from hblcert.oracle import gaussian_ascent
from hblcert.presentation import bound_constant, verify_presentation


def main() -> None:
    for name, (make_datum, make_pres) in ALL_FIXTURES.items():
        datum, shipped = make_datum(), make_pres()
        t0 = time.time()
        report = verify_presentation(datum, shipped)
        cert = bound_constant(datum, shipped)

        seeds = []
        if name == "r6":
            seeds = [span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                           [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)]
        lattice = generate_lattice(datum, seeds=seeds)
        built = build_presentation(datum, lattice)
        built_cert = bound_constant(datum, built)

        sup, diverged = gaussian_ascent(datum, iterations=400, seed=0)
        elapsed = time.time() - t0
        print(f"{name}: shipped {'valid' if report.valid else 'INVALID'} "
              f"(C = {cert.value:.6f}), rebuilt {len(built.graph.vertices)} vertices "
              f"(C = {built_cert.value:.6f}), gaussian sup ~ {sup:.6f}"
              f"{' DIVERGED' if diverged else ''} [{elapsed:.1f}s]")


if __name__ == "__main__":
    main()
