#!/usr/bin/env bash
# Run the three-fault model on vigilant-fixed at one and at two jobs.
#
# Usage, from the repository root: bash .github/three_faults.sh
#
# All 3,682 vectors of vigilant-fixed with up to three zeroing faults,
# permanent faults only and protected conditions: each 3-fault vector
# resumes from the walk of its 2-fault prefix, in the pool workers too.  Both
# runs must exit 2, print the same headline and write the same JSON report,
# pinned by its digest.  Reports go to three-faults-j1/ and three-faults-j2/.
set -e
for jobs in 1 2; do
  code=0
  PYTHONPATH=src python -m modfault.cli analyze corpus/vigilant-fixed.fj --faults 3 --kinds zeroing --transient false --protect-conditions --jobs $jobs --format text,json --out three-faults-j$jobs > three-faults-j$jobs.txt || code=$?
  test "$code" -eq 2 || { echo "--jobs $jobs: exit code $code, expected 2"; exit 1; }
  grep -qxF "3682 injections: 3558 detected, 106 harmless, 18 attacks" three-faults-j$jobs.txt
done
python .github/report_digest.py 9ffef2e289c3bd122c8c3a6b79f6401312a70c5745eb96490c6f19ed259c4fa7 three-faults-j1/vigilant-fixed.report.json three-faults-j2/vigilant-fixed.report.json
