"""Run the command-line front end: ``python -m sectormeans ...``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
