"""`python -m bimodal`: the command line of `bimodal.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
