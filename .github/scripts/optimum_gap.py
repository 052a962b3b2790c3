"""Check that Max-SR, MMSE and LC-MMSE read WF-MRC's Bob SINR.

The three share WF-MRC's optimum direction, so at every point of each
`dmrbf run` CSV given their `sinr_bob_db` must lie within 1e-5 dB of
WF-MRC's.  Usage: python optimum_gap.py CSV [CSV ...]
"""

import csv
import sys

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    ref = {r["axis_value"]: float(r["sinr_bob_db"]) for r in rows if r["method"] == "wfmrc"}
    gaps = [
        abs(float(r["sinr_bob_db"]) - ref[r["axis_value"]])
        for r in rows
        if r["method"] in ("max_sr", "mmse", "lc_mmse")
    ]
    if not (ref and len(gaps) == 3 * len(ref)):
        sys.exit(f"{path}: expected wfmrc, max_sr, mmse and lc_mmse at every point")
    print(f"{path}: {len(ref)} points, worst gap to wfmrc {max(gaps):.2e} dB")
    if max(gaps) > 1e-5:
        sys.exit(f"{path}: a gap exceeds 1e-5 dB")
