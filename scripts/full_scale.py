#!/usr/bin/env python3
"""Run a config with ``nslsq run``, then list the rows of its sqrt(2E) history
that differ at two significant figures from its ``[reference] sqrt2E`` rows
(one per outer iterate from k = 0; a row that one side lacks reads nan).  The
exit code is that of ``nslsq run``: the full-scale references come from
another mesh of the same nominal size, so a mismatch is reported, not fatal.

    python scripts/full_scale.py configs/full_scale_nu500.ini
"""

import argparse
import configparser
import sys
from itertools import zip_longest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nslsq import cli  # noqa: E402


def reference_rows(text: str) -> list[float]:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return [float(v) for v in parser["reference"]["sqrt2E"].replace(",", " ").split()]


def mismatches(got: list[float], ref: list[float]) -> list[tuple]:
    """(k, got, reference) for each row that differs at two significant
    figures, with NaN for a row that one side lacks."""
    return [(k, g, r) for k, (g, r) in enumerate(zip_longest(got, ref, fillvalue=float("nan")))
            if f"{g:.1e}" != f"{r:.1e}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("config", help="INI config with a [reference] section")
    config = Path(ap.parse_args(argv).config)
    text = config.read_text()
    ref = reference_rows(text)
    code = cli.main(["run", str(config)])
    if code == 1:
        return code
    history = Path(cli.parse_config(text).outdir) / "history.csv"
    got = [float(row.split(",")[2]) for row in history.read_text().splitlines()[1:]]
    bad = mismatches(got, ref)
    print(f"{len(bad)} of {max(len(got), len(ref))} rows differ from" if bad
          else f"all {len(got)} rows match", "the sqrt(2E) reference at 2 significant figures")
    for k, g, r in bad:
        print(f"  k={k}: got {g:.3e}, reference {r:.3e}")
    return code


if __name__ == "__main__":
    sys.exit(main())
