"""The bundle oracles stand apart from the code they check."""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_bundle_oracles_import_no_morekg_module():
    # -I -S: no PYTHONPATH, no user or site packages, so only tests/ and
    # the standard library are on the path
    code = ("import sys; sys.path.insert(0, %r); import oracles; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'morekg'))"
            % str(TESTS))
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
