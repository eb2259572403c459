"""`import octeig` loads the solver only: run as a script, in a fresh interpreter, it imports
numpy, then octeig, prints the modules that octeig added, and exits 1 if the verification
harness or the report fingerprint's hashlib and json are among them.

    python tests/import_snapshot.py
"""

import sys

import numpy  # noqa: F401  (loaded before the snapshot, as by every octeig caller)

LAZY = {"octeig.harness", "hashlib", "json"}

before = set(sys.modules)
import octeig  # noqa: E402,F401

added = sorted(set(sys.modules) - before)
print(f"import octeig added {len(added)} modules: {' '.join(added)}")
if LAZY.intersection(added):
    sys.exit(f"import octeig loaded {sorted(LAZY.intersection(added))}, which load on first use")
