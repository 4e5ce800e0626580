"""Run the command line: ``python -m sttt`` is the ``sttt`` command."""

from .cli import main

raise SystemExit(main())
