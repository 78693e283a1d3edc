"""`python -m logitkit ...` runs the command line, as the `logitkit` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
