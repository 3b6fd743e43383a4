#!/usr/bin/env bash
# Run a pinned fault model of vigilant-fixed at one and at two jobs.
#
# Usage, from the repository root:
#   bash .github/pinned_model.sh NAME HEADLINE SHA256 [ANALYZE-OPTION]...
#
# Analyzes corpus/vigilant-fixed.fj with the given options at --jobs 1 and
# --jobs 2.  The model has attacks, so both runs must exit 2; both must
# print HEADLINE as a line of their text report and write the same JSON
# report, pinned by the digest .github/report_digest.py checks.  The two
# runs hash strings differently (PYTHONHASHSEED 0 at one job, 1 at two), so
# the digest also pins that the report does not depend on the hash seed.
# The text goes to NAME-j1.txt and NAME-j2.txt, the reports to NAME-j1/ and
# NAME-j2/.
set -e
name=$1 headline=$2 digest=$3
shift 3
for jobs in 1 2; do
  code=0
  PYTHONHASHSEED=$((jobs - 1)) PYTHONPATH=src python -m modfault.cli analyze corpus/vigilant-fixed.fj "$@" --jobs $jobs --format text,json --out $name-j$jobs > $name-j$jobs.txt || code=$?
  test "$code" -eq 2 || { echo "$name, --jobs $jobs: exit code $code, expected 2"; exit 1; }
  grep -qxF "$headline" $name-j$jobs.txt || { echo "$name, --jobs $jobs: no line \"$headline\""; exit 1; }
done
python .github/report_digest.py "$digest" $name-j1/vigilant-fixed.report.json $name-j2/vigilant-fixed.report.json
