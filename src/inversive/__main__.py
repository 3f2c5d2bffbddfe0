"""``python -m inversive``: the command line interface."""

from .shell import main

main()
