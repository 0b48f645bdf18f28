"""``python -m byzrank``: the command-line tool, installed or not."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
