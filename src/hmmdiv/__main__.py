"""`python -m hmmdiv`: the same command line as the `hmmdiv` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
