"""``python -m ecokg``: the command-line driver."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
