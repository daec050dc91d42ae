"""``python -m kgroups``: the command-line interface, exiting with its code."""

import sys

from .cli import main

sys.exit(main())
