"""``python -m conhoch``: the command line, through :func:`conhoch.cli.run`."""

from .cli import run

run()
