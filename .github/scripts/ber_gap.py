"""Check that every BER lies within four half-widths of its analytic value.

Each count is Binomial(2N, Q(sqrt(SINR))) at the SINR its rate columns
report, so at every row of each `dmrbf run` CSV given, |ber - ber_analytic|
must be at most 4 ber_ci95 (the Wilson 95 % half-width).
Usage: python ber_gap.py CSV [CSV ...]
"""

import csv
import sys

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    if not rows:
        sys.exit(f"{path}: no rows")
    gaps = [abs(float(r["ber"]) - float(r["ber_analytic"])) / float(r["ber_ci95"]) for r in rows]
    worst = max(range(len(rows)), key=gaps.__getitem__)
    row = rows[worst]
    print(
        f"{path}: {len(rows)} rows, worst gap {gaps[worst]:.2f} half-widths "
        f"({row['method']} at {row['axis_value']})"
    )
    if gaps[worst] > 4.0:
        sys.exit(f"{path}: a BER lies more than 4 half-widths from its analytic value")
