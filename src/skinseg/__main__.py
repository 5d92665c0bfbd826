"""``python -m skinseg``: the same command line as the ``skinseg`` script."""

from .cli import entry

entry()
