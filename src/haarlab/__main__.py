"""`python -m haarlab`, the same command as the haarlab script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
