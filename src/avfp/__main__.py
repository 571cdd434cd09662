"""`python -m avfp`: the `avfp` command line (see avfp.evalcli)."""

import sys

from .evalcli import main

sys.exit(main())
