"""``python -m hartogs``: the command line runner, also from a source checkout."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
