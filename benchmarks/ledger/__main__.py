"""``python benchmarks/ledger`` — run the ledger (see README.md beside this file)."""

import sys
from pathlib import Path

# Run as a directory, so the package's parent must be importable.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
