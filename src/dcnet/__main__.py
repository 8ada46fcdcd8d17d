"""``python -m dcnet``: the ``dcnet`` command line, for a checkout where the script is not installed."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
