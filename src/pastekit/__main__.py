"""``python -m pastekit``: the command-line interface of `pastekit.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
