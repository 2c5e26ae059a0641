"""``python -m pressim``: the ``pressim`` command line."""

import sys

from pressim.cli import main

if __name__ == "__main__":
    sys.exit(main())
