"""`python -m kfplab`: the kfplab command line (see kfplab.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
