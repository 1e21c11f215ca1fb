"""``python -m kbf``: the ``kbf`` command line, as the installed script runs it."""

from kbf.cli import main

if __name__ == "__main__":
    main()
