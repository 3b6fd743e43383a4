"""Check JSON reports against a pinned digest.

Usage: python .github/report_digest.py SHA256 REPORT...

A report's digest is the sha256 of its bytes without the duration_ms line,
the one field that differs between two runs of the same model.  Prints each
report's size and digest, and exits 1 unless every report has exactly one
duration_ms line and the digest SHA256.
"""

import hashlib
import re
import sys
from pathlib import Path


def main(argv):
    if len(argv) < 2:
        sys.exit("usage: report_digest.py SHA256 REPORT...")
    expected, *paths = argv
    for path in paths:
        raw = Path(path).read_bytes()
        body, n = re.subn(rb',\n  "duration_ms": [^\n]*', b"", raw)
        digest = hashlib.sha256(body).hexdigest()
        print(f"{path} without duration_ms: {len(body)} bytes, sha256 {digest}")
        if n != 1 or digest != expected:
            sys.exit(f"{path}: the JSON report changed")


if __name__ == "__main__":
    main(sys.argv[1:])
