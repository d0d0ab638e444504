"""`python -m mrflow`: the mrflow command line."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
