"""Allow `python -m thetadim` as an alternative to the console script."""

import sys

from .cli import run

sys.exit(run())
