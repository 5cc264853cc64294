"""``python -m mfclab``: the command line of ``mfclab.cli``."""

import sys

from . import cli

sys.exit(cli.main())
