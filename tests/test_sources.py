"""Every Python file under src/, tests/, bench/ and demos/ compiles with
warnings as errors.  An invalid escape in a non-raw string, such as a
docstring that names ``/\\`` without doubling the backslash, is a
DeprecationWarning up to Python 3.11 and a SyntaxWarning from 3.12 on."""

import pathlib
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_source_compiles_without_warnings():
    sources = sorted(path for folder in ("src", "tests", "bench", "demos")
                     for path in (ROOT / folder).rglob("*.py"))
    assert len(sources) > 20
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_bytes(), str(path), "exec")
