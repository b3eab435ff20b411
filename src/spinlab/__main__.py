"""``python -m spinlab ...`` runs the same command line as the ``spinlab`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
