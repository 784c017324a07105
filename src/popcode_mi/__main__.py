"""``python -m popcode_mi <experiment> ...``: the experiment runner of :mod:`popcode_mi.cli`."""

from .cli import entry
entry()
