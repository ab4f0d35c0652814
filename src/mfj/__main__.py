"""``python -m mfj``: the same command line as the ``mfj`` script."""
from .cli import main

raise SystemExit(main())
