"""``python -m gbsn``: the command line of ``gbsn.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
