"""``python -m riskflow``: the command line of ``riskflow.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
