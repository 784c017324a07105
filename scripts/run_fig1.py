#!/usr/bin/env python3
"""Population-size sweep: I_F/I_G/I_G+ against the Monte Carlo reference.

Runs the desk-scale configuration (j_max = 5e4, M = 500, 10 repeats per
population size) and writes ``fig1.csv`` plus its JSON sidecar to the
current directory.  Any runner flag can be appended, e.g.::

    python3 scripts/run_fig1.py --seed 7 --bits --out /tmp/sweep.csv
    python3 scripts/run_fig1.py --paper-scale   # j_max = 5e5, M = 1000, N up to 1000
"""

from __future__ import annotations

import sys
from pathlib import Path

from popcode_mi.cli import main

CONFIG = Path(__file__).resolve().parent / "configs" / "fig1.json"

if __name__ == "__main__":
    sys.exit(main(["fig1", "--config", str(CONFIG), *sys.argv[1:]]))
