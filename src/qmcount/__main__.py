"""Run the command-line interface as ``python -m qmcount``."""

import sys

from .cli import main

sys.exit(main())
