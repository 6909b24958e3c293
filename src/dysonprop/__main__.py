"""``python -m dysonprop``: the command-line interface of ``dysonprop.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
