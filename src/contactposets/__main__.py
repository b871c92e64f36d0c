"""``python -m contactposets``: the command line of ``contactposets.cli``."""

import sys

from .cli import main

sys.exit(main())
