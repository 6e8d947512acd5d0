"""``python -m rentlab``: the same command line as the ``rentlab`` script."""

from .cli import main

raise SystemExit(main())
